//! Order statistics used by the report and by `--aa`.

/// The `p`-quantile (0 ≤ p ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice. Sorts a copy.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let below = rank.floor() as usize;
            let above = (below + 1).min(n - 1);
            sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
        }
    }
}

/// The quantile every gated timing is read at.
///
/// The host has slow episodes, seconds to tens of seconds long, in which
/// allocation- and memory-heavy work runs up to 40 % slower while the
/// reference kernel barely moves; nothing divides them out. What repeats
/// is the time a block takes outside them, so timings are read low in
/// the distribution. Over ten 30 s runs per workload the IQR ÷ median
/// of the normalised block time was 5–14 % at p25, 1–11 % at p10, 1–7 %
/// at p5, 1–6 % at p2 and 3–5 % at the minimum (which one lucky block
/// decides); p2 is the lowest that still rests on tens of blocks.
pub const FAST: f64 = 0.02;

/// The fast quantile: the time a block takes when nothing disturbs it.
pub fn fast(values: &[f64]) -> f64 {
    percentile(values, FAST)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.50)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method) — the driver's acceptance rule is written in those terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.10) - 1.4).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }
}
