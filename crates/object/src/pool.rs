//! A minimal scoped worker pool for partitioned execution.
//!
//! The workspace has no registry access, so instead of a thread-pool
//! dependency this module vendors the one shape the engine needs: run one
//! closure per partition on its own OS thread, join them all, and return the
//! results **in partition order** — which is what keeps partitioned execution
//! deterministic regardless of which worker finishes first.
//!
//! Scoped threads (`std::thread::scope`) let the closures borrow the shared
//! read-only context (frozen [`ValueStore`](crate::store::ValueStore)
//! prefixes, interrupt handles, the compiled query) without `Arc`-wrapping
//! every borrow, and the scope guarantees every worker has exited before the
//! coordinator resumes.
//!
//! Partition counts are small (the engine clamps `parallelism(n)` well below
//! the candidate counts it splits), so spawn cost is amortised over a whole
//! partition of work; a persistent pool would save microseconds per execution
//! at the price of `'static` bounds on everything it touches.

/// Run `work(partition_index, input)` for each input, one OS thread per
/// partition, and return the outputs in partition order.
///
/// A single partition runs inline on the caller's thread — the sequential
/// ablation path spawns nothing.  If a worker panics, the panic is resumed on
/// the caller's thread once every other worker has finished, so the engine's
/// `catch_unwind` containment seam sees exactly what a sequential panic would
/// have thrown (fault injection relies on this).
///
/// ```
/// let chunks = vec![0..4u32, 4..8, 8..12];
/// let sums = itq_object::pool::run_partitions(chunks, |_, chunk| chunk.sum::<u32>());
/// assert_eq!(sums, vec![6, 22, 38]);
/// ```
pub fn run_partitions<I, R, F>(inputs: Vec<I>, work: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let mut inputs = inputs;
    if inputs.len() <= 1 {
        return inputs
            .pop()
            .map(|input| vec![work(0, input)])
            .unwrap_or_default();
    }
    let outputs = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(partition, input)| scope.spawn(move || work(partition, input)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join())
            .collect::<Vec<_>>()
    });
    outputs
        .into_iter()
        .map(|joined| match joined {
            Ok(output) => output,
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect()
}

/// Split `total` work items into at most `workers` contiguous partitions of
/// near-equal size, returned as `(start, end)` half-open ranges over
/// `0..total`.  The split is a pure function of `(total, workers)` — the same
/// inputs always partition identically, which partitioned execution relies on
/// for deterministic stats and error reconstruction.  Empty partitions are
/// never returned.
pub fn partition_ranges(total: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1).min(total.max(1));
    if total == 0 {
        return Vec::new();
    }
    let chunk = total / workers;
    let remainder = total % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let len = chunk + usize::from(i < remainder);
        if len == 0 {
            break;
        }
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_partition_order() {
        // Workers finishing out of order must not reorder outputs: the last
        // partition sleeps least, so it finishes first.
        let inputs: Vec<u64> = (0..6).collect();
        let outputs = run_partitions(inputs, |partition, input| {
            std::thread::sleep(std::time::Duration::from_millis(12 - 2 * input));
            (partition, input * 10)
        });
        assert_eq!(
            outputs,
            (0..6).map(|i| (i as usize, i * 10)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_partition_runs_inline() {
        let caller = std::thread::current().id();
        let out = run_partitions(vec![()], |_, ()| std::thread::current().id());
        assert_eq!(out, vec![caller]);
        let none: Vec<u8> = run_partitions(Vec::<()>::new(), |_, ()| 0u8);
        assert!(none.is_empty());
    }

    #[test]
    fn worker_panics_resume_on_the_caller() {
        let result = std::panic::catch_unwind(|| {
            run_partitions(vec![0, 1, 2], |_, input| {
                if input == 1 {
                    panic!("injected worker fault");
                }
                input
            })
        });
        let payload = result.expect_err("the worker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("injected worker fault"));
    }

    #[test]
    fn partition_ranges_cover_exactly_once_and_balance() {
        for total in [0usize, 1, 2, 7, 16, 1000] {
            for workers in [1usize, 2, 3, 8, 64] {
                let ranges = partition_ranges(total, workers);
                let mut covered = 0;
                for (i, &(start, end)) in ranges.iter().enumerate() {
                    assert_eq!(start, covered, "contiguous at {total}/{workers}");
                    assert!(end > start, "no empty partitions");
                    if i > 0 {
                        let prev = ranges[i - 1].1 - ranges[i - 1].0;
                        let this = end - start;
                        assert!(prev >= this && prev - this <= 1, "balanced");
                    }
                    covered = end;
                }
                assert_eq!(covered, total, "full cover at {total}/{workers}");
                assert!(ranges.len() <= workers.max(1));
            }
        }
        // Determinism: same inputs, same split.
        assert_eq!(partition_ranges(10, 4), partition_ranges(10, 4));
        assert_eq!(
            partition_ranges(10, 4),
            vec![(0, 3), (3, 6), (6, 8), (8, 10)]
        );
    }
}
