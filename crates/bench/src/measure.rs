//! One measurement routine for every timed `report` trajectory.
//!
//! A trajectory times a grid of `groups` workloads, each under the same
//! `arms`: two backends, the plain and the instrumented path of an overhead
//! gate, or a sweep of worker counts.  [`measure`] runs warm-up rounds, then
//! kept rounds.  A round runs every group's arms back to back, and the arm
//! that goes first rotates from round to round, so the arms of a pair share
//! the machine's state and neither always runs on a cold cache.
//!
//! Every statistic is a median with a distribution-free 95% interval taken
//! from order statistics ([`Estimate`]); nothing is resampled and no random
//! numbers are drawn.  A [`Gate`] is decided on that interval: it passes only
//! when the whole interval lies on the good side of its bound, and fails when
//! the whole interval lies on the bad side.  Otherwise [`measure`] doubles
//! the rounds, up to the schedule's cap, and a gate whose interval still
//! straddles its bound there fails.

use std::fmt;

/// How many rounds a trajectory runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Rounds run before any sample is kept.
    pub warmup: usize,
    /// Kept rounds in the first trial; an unresolved gate doubles them.
    pub rounds: usize,
    /// The most kept rounds a trajectory runs: a gate still unresolved here
    /// fails.
    pub cap: usize,
}

/// A median with its distribution-free 95% interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The sample median.
    pub median: f64,
    /// The interval's lower end, `x_k` of the sorted samples.
    pub low: f64,
    /// The interval's upper end, `x_(n−1−k)` of the sorted samples.
    pub high: f64,
}

/// The index `k` of the interval's lower end among `n` sorted samples:
/// `k = ⌊(n − 1.96√n) / 2⌋`, clamped at 0.  The count of samples below the
/// median is Binomial(n, ½), so `[x_k, x_(n−1−k)]` covers the median with
/// about 95% probability whatever the distribution.  Below 8 samples the
/// interval is the whole range.
fn interval_index(n: usize) -> usize {
    let n = n as f64;
    ((n - 1.96 * n.sqrt()) / 2.0).floor().max(0.0) as usize
}

impl Estimate {
    /// The median of `samples` and its interval.
    ///
    /// # Panics
    ///
    /// If `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Estimate {
        assert!(!samples.is_empty(), "an estimate needs a sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("a sample is never NaN"));
        let n = sorted.len();
        let k = interval_index(n);
        Estimate {
            median: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
            low: sorted[k],
            high: sorted[n - 1 - k],
        }
    }

    /// The estimate of `f(x)`, for an increasing affine `f`: the median and
    /// the order statistics commute with it.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Estimate {
        Estimate {
            median: f(self.median),
            low: f(self.low),
            high: f(self.high),
        }
    }

    /// The estimate as three JSON record fields: `"NAME"` holds the median,
    /// `"NAME_lo"` and `"NAME_hi"` the interval's ends.
    pub fn json(&self, name: &str) -> String {
        format!(
            "\"{name}\":{:.2},\"{name}_lo\":{:.2},\"{name}_hi\":{:.2}",
            self.median, self.low, self.high
        )
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "median {:.2}, 95% interval [{:.2}, {:.2}]",
            self.median, self.low, self.high
        )
    }
}

/// The side of a bound a gated statistic must lie on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The statistic must stay under this value.
    Below(f64),
    /// The statistic must reach this value.
    AtLeast(f64),
}

/// How a gate's interval lies against its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The whole interval lies on the good side.
    Pass,
    /// The whole interval lies on the bad side.
    Fail,
    /// The interval straddles the bound.
    Unresolved,
}

/// A bound on one statistic of a trajectory, decided on its interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What the statistic is, for the printed verdict.
    pub what: String,
    /// The statistic.
    pub estimate: Estimate,
    /// The bound it must meet.
    pub bound: Bound,
}

impl Gate {
    /// Where the estimate's interval lies against the bound.
    fn verdict(&self) -> Verdict {
        let Estimate { low, high, .. } = self.estimate;
        match self.bound {
            Bound::Below(bound) if high < bound => Verdict::Pass,
            Bound::Below(bound) if low >= bound => Verdict::Fail,
            Bound::AtLeast(bound) if low >= bound => Verdict::Pass,
            Bound::AtLeast(bound) if high < bound => Verdict::Fail,
            _ => Verdict::Unresolved,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bound = match self.bound {
            Bound::Below(bound) => format!("< {bound}"),
            Bound::AtLeast(bound) => format!("≥ {bound}"),
        };
        write!(f, "{}: {}, bound {bound}", self.what, self.estimate)
    }
}

/// The kept samples of one trajectory, with the core count they ran on.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `times[group][arm][round]`, whatever unit the arms return.
    times: Vec<Vec<Vec<f64>>>,
    /// The cores available to this process while it measured.
    pub cores: usize,
    /// The gates as last decided.  [`measure`] returns a measurement only
    /// when every one of them passed.
    pub gates: Vec<Gate>,
}

impl Measurement {
    /// Kept rounds so far.
    pub fn rounds(&self) -> usize {
        self.times
            .first()
            .and_then(|arms| arms.first())
            .map_or(0, Vec::len)
    }

    /// One sample per kept round of arm `arm`: its time on `group`, or with
    /// `None` its total over the whole grid.
    fn series(&self, group: Option<usize>, arm: usize) -> Vec<f64> {
        match group {
            Some(group) => self.times[group][arm].clone(),
            None => (0..self.rounds())
                .map(|round| self.times.iter().map(|arms| arms[arm][round]).sum())
                .collect(),
        }
    }

    /// The median time of arm `arm` on `group`, or with `None` of its
    /// per-round total over the grid.
    pub fn time(&self, group: Option<usize>, arm: usize) -> Estimate {
        Estimate::of(&self.series(group, arm))
    }

    /// The median of the per-round ratios of arm `num`'s time to arm `den`'s
    /// on `group`, or with `None` of their per-round totals over the grid.
    pub fn ratio(&self, group: Option<usize>, num: usize, den: usize) -> Estimate {
        let ratios: Vec<f64> = self
            .series(group, num)
            .iter()
            .zip(self.series(group, den))
            .map(|(num, den)| num / den)
            .collect();
        Estimate::of(&ratios)
    }

    /// The two fields every timed record carries: the core count and the
    /// number of kept rounds.
    pub fn json(&self) -> String {
        format!("\"cores\":{},\"samples\":{}", self.cores, self.rounds())
    }

    /// Run one round: every group's arms, starting at arm `round % arms`.
    fn round(&mut self, round: usize, run: &mut impl FnMut(usize, usize) -> f64, keep: bool) {
        for (group, arms) in self.times.iter_mut().enumerate() {
            let count = arms.len();
            for offset in 0..count {
                let arm = (round + offset) % count;
                let sample = run(group, arm);
                if keep {
                    arms[arm].push(sample);
                }
            }
        }
    }
}

/// Time a trajectory of `groups` × `arms` and decide its gates.
///
/// `run(group, arm)` executes one arm on one group and returns its time.
/// After `schedule.warmup` discarded rounds and `schedule.rounds` kept ones,
/// `gates` states the trajectory's bounds on the samples so far.  When all
/// of them pass, the measurement is returned; when one fails, or one is
/// still unresolved at `schedule.cap` kept rounds, the error lists every
/// gate that did not pass.  While a gate is unresolved below the cap, the
/// kept rounds double.  A trajectory with no gates runs `schedule.rounds`.
pub fn measure(
    schedule: Schedule,
    (groups, arms): (usize, usize),
    mut run: impl FnMut(usize, usize) -> f64,
    gates: impl Fn(&Measurement) -> Vec<Gate>,
) -> Result<Measurement, String> {
    let mut measurement = Measurement {
        times: vec![vec![Vec::new(); arms]; groups],
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        gates: Vec::new(),
    };
    for round in 0..schedule.warmup {
        measurement.round(round, &mut run, false);
    }
    let mut target = schedule.rounds.clamp(1, schedule.cap.max(1));
    loop {
        while measurement.rounds() < target {
            let round = schedule.warmup + measurement.rounds();
            measurement.round(round, &mut run, true);
        }
        measurement.gates = gates(&measurement);
        let verdicts: Vec<Verdict> = measurement.gates.iter().map(Gate::verdict).collect();
        if verdicts.iter().all(|v| *v == Verdict::Pass) {
            return Ok(measurement);
        }
        let failed = verdicts.contains(&Verdict::Fail);
        if failed || target >= schedule.cap {
            let outcome = if failed {
                "failed"
            } else {
                "unresolved at the cap"
            };
            let lines: Vec<String> = measurement
                .gates
                .iter()
                .zip(&verdicts)
                .filter(|(_, verdict)| **verdict != Verdict::Pass)
                .map(|(gate, verdict)| format!("  {gate} ({verdict:?})"))
                .collect();
            return Err(format!(
                "gate {outcome} after {target} rounds:\n{}",
                lines.join("\n")
            ));
        }
        target = (target * 2).min(schedule.cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_interval_index_follows_the_order_statistic_formula() {
        for (n, k) in [
            (1, 0),
            (5, 0),
            (7, 0),
            (8, 1),
            (10, 1),
            (32, 10),
            (100, 40),
            (240, 104),
            (960, 449),
        ] {
            assert_eq!(interval_index(n), k, "n = {n}");
        }
    }

    #[test]
    fn an_estimate_takes_the_median_and_two_order_statistics() {
        let even = [7.0, 2.0, 9.0, 1.0, 10.0, 4.0, 3.0, 8.0, 6.0, 5.0];
        let e = Estimate::of(&even);
        assert_eq!((e.median, e.low, e.high), (5.5, 2.0, 9.0));
        let odd = [3.0, 1.0, 2.0];
        let e = Estimate::of(&odd);
        assert_eq!((e.median, e.low, e.high), (2.0, 1.0, 3.0));
        let pct = Estimate::of(&[1.01, 1.02, 1.03]).map(|r| (r - 1.0) * 100.0);
        assert!((pct.median - 2.0).abs() < 1e-9 && (pct.high - 3.0).abs() < 1e-9);
        assert_eq!(
            e.json("x_micros"),
            "\"x_micros\":2.00,\"x_micros_lo\":1.00,\"x_micros_hi\":3.00"
        );
    }

    #[test]
    fn rounds_rotate_which_arm_goes_first() {
        let mut calls = Vec::new();
        let schedule = Schedule {
            warmup: 1,
            rounds: 2,
            cap: 2,
        };
        let m = measure(
            schedule,
            (2, 2),
            |group, arm| {
                calls.push((group, arm));
                (10 * group + arm) as f64
            },
            |_| Vec::new(),
        )
        .unwrap();
        let round = |first: usize| {
            let second = 1 - first;
            vec![(0, first), (0, second), (1, first), (1, second)]
        };
        assert_eq!(calls, [round(0), round(1), round(0)].concat());
        assert_eq!(m.rounds(), 2, "warm-up rounds are discarded");
        assert_eq!(m.time(Some(1), 1).median, 11.0);
        assert_eq!(m.time(None, 1).median, 12.0, "1 + 11 per round");
        assert_eq!(m.json(), format!("\"cores\":{},\"samples\":2", m.cores));
    }

    /// A gate on the ratio of arm 0 to arm 1, over one group.
    fn ratio_gate(bound: Bound) -> impl Fn(&Measurement) -> Vec<Gate> {
        move |m| {
            vec![Gate {
                what: "ratio".to_string(),
                estimate: m.ratio(Some(0), 0, 1),
                bound,
            }]
        }
    }

    const SCHEDULE: Schedule = Schedule {
        warmup: 2,
        rounds: 8,
        cap: 64,
    };

    #[test]
    fn a_gate_passes_once_its_whole_interval_clears_the_bound() {
        let constant = |_, arm| if arm == 0 { 3.0 } else { 1.0 };
        let m = measure(SCHEDULE, (1, 2), constant, ratio_gate(Bound::AtLeast(2.0))).unwrap();
        assert_eq!(m.rounds(), 8, "resolved on the first trial");
        assert_eq!(m.gates[0].verdict(), Verdict::Pass);
        let m = measure(SCHEDULE, (1, 2), constant, ratio_gate(Bound::Below(3.5))).unwrap();
        assert_eq!(m.rounds(), 8);
    }

    #[test]
    fn a_gate_fails_when_its_whole_interval_is_on_the_bad_side() {
        let constant = |_, arm| if arm == 0 { 3.0 } else { 1.0 };
        let err = measure(SCHEDULE, (1, 2), constant, ratio_gate(Bound::Below(2.0))).unwrap_err();
        assert!(err.starts_with("gate failed after 8 rounds"), "{err}");
        assert!(err.contains("ratio: median 3.00"), "{err}");
        let err = measure(SCHEDULE, (1, 2), constant, ratio_gate(Bound::AtLeast(4.0))).unwrap_err();
        assert!(err.starts_with("gate failed after 8 rounds"), "{err}");
    }

    #[test]
    fn an_unresolved_gate_doubles_the_rounds_and_fails_at_the_cap() {
        // Arm 0 alternates between 1 and 3 round by round, so the ratio's
        // interval is [1, 3] at every size and never leaves the bound 2.
        let mut kept = 0usize;
        let alternating = |_, arm| {
            if arm == 1 {
                return 1.0;
            }
            kept += 1;
            if kept % 2 == 0 {
                3.0
            } else {
                1.0
            }
        };
        let err =
            measure(SCHEDULE, (1, 2), alternating, ratio_gate(Bound::Below(2.0))).unwrap_err();
        assert!(
            err.starts_with("gate unresolved at the cap after 64 rounds"),
            "{err}"
        );
        assert!(
            err.contains("[1.00, 3.00], bound < 2 (Unresolved)"),
            "{err}"
        );
        assert_eq!(kept, SCHEDULE.warmup + SCHEDULE.cap);
    }

    #[test]
    fn a_gate_that_narrows_resolves_after_doubling() {
        // Samples spread evenly over [1, 2) (the golden-ratio sequence): the
        // median is 1.5, and the interval narrows as the rounds double.
        let mut round = 0u32;
        let spread = |_, arm| {
            if arm == 1 {
                return 1.0;
            }
            round += 1;
            1.0 + (f64::from(round) * 0.618_033_988_75).fract()
        };
        let m = measure(SCHEDULE, (1, 2), spread, ratio_gate(Bound::Below(1.7))).unwrap();
        assert!(m.rounds() > SCHEDULE.rounds && m.rounds() < SCHEDULE.cap);
        let estimate = m.gates[0].estimate;
        assert!(estimate.low > 1.3 && estimate.high < 1.7, "{estimate}");
    }
}
