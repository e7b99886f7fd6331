//! Order statistics, and the order-free digest that answer checks compare.

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (position `q · (n − 1)` in sorted order).  `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`, or 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// An order-free digest of a multiset of lines: their count, plus the
/// wrapping sum and the xor of their hashes.  Answer sets render in the
/// server's interning order, which the check must not depend on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    count: usize,
    sum: u64,
    xor: u64,
}

impl Digest {
    /// Fold one line into the digest.
    pub fn add(&mut self, line: &str) {
        let h = fnv1a(line.as_bytes());
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    /// The digest of every line in `lines`.
    pub fn of<'a>(lines: impl IntoIterator<Item = &'a str>) -> Digest {
        let mut digest = Digest::default();
        for line in lines {
            digest.add(line);
        }
        digest
    }

    /// Number of lines folded in.
    pub fn count(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.9), Some(4.6));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn digest_ignores_order() {
        assert_eq!(Digest::of(["a", "b", "c"]), Digest::of(["c", "a", "b"]));
        assert_ne!(Digest::of(["a", "b"]), Digest::of(["a", "c"]));
    }
}
