//! Order statistics of timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the driver computes
//! over ten runs; using the same rule here makes `compare`'s spread the
//! number the driver will see.

use crate::json::Json;

/// `{n, q1, median, q3}` of one timing — the shape every timing in a run
/// record carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (any order). `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let [q1, median, q3] = quartiles(values)?;
        Some(Summary {
            n: values.len(),
            q1,
            median,
            q3,
        })
    }

    /// Interquartile range as a share of the median — the spread the
    /// driver holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
        ])
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of `values`, by the exclusive method:
/// cut `i` sits at rank `i·(n+1)/4`, interpolated linearly between its
/// neighbours and clamped to the data. A single value is its own
/// quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let rank = (i + 1) * m;
        let j = (rank / 4).clamp(1, n - 1);
        // May exceed 4 (or go negative) at the clamped ends, exactly as in
        // the Python original: the cut then extrapolates along the last
        // pair, which only matters for n < 3.
        let delta = rank as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Median of `values`; 0 when empty (a layer no job called).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| q[1])
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let data = sorted(values);
    if data.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile of the usual ladder that still has at least
/// [`TAIL_SUPPORT`] of `n` samples beyond it; `None` when even p75 does
/// not (the median is then all that can honestly be said).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, so the "samples beyond" test is exact integer arithmetic.
    const LADDER: [usize; 5] = [999, 990, 950, 900, 750];
    LADDER
        .into_iter()
        .find(|pm| n * (1000 - pm) >= TAIL_SUPPORT * 1000)
        .map(|pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            Some([15.0, 40.0, 120.0])
        );
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 10);
        assert!((s.spread() - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None); // p75 leaves 9.75
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0)); // p90 leaves 9.9
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
