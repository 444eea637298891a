//! Order statistics and the correctness tally.

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail reported next to a median: the highest whole percentile with at
/// least ten samples above it, or the maximum (labelled `max`) when that
/// percentile would not lie above the median (fewer than 21 samples).
pub fn tail(values: &[f64]) -> (String, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 21 {
        return ("max".to_string(), v.last().copied().unwrap_or(0.0));
    }
    // Index n-11 leaves exactly ten samples above it.
    let idx = n - 11;
    (format!("p{}", (idx + 1) * 100 / n), v[idx])
}

/// Region runs attempted and failed. A run fails when its engine returns an
/// error or its final memory image differs from the sequential oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `attempted` region runs of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Failed runs divided by attempted runs.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (label, value) = tail(&v);
        assert_eq!(value, 30.0);
        assert_eq!(label, "p75");
        assert_eq!(tail(&[1.0, 5.0]).0, "max");
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.add(1, 0);
        t.add(1, 1);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.failed_ratio(), 0.5);
    }
}
