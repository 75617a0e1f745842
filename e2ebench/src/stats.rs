//! Quantiles computed from raw samples (never from histogram buckets).

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Consecutive samples per window of [`windowed_tail`]: the ten-beyond
/// rule makes each window's tail its p95.
pub const TAIL_WINDOW: usize = 200;

/// The highest percentile a sample supports: the value with exactly
/// [`TAIL_BEYOND`] samples ranked after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Share of samples ranked at or below `value`, in percent.
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
    /// Windows whose tails the value is the median of (1 for [`tail`]).
    pub windows: usize,
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of `values` under the ten-beyond rule; `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(values);
    let at = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: s[at],
        percentile: (at + 1) as f64 / n as f64 * 100.0,
        n,
        windows: 1,
    })
}

/// The tail of a run in time order: [`tail`] of each whole window of
/// [`TAIL_WINDOW`] consecutive samples, and the median of those window
/// tails, so a slow stretch of the host moves one window rather than the
/// result. Samples after the last whole window are left out; a run
/// shorter than one window falls back to [`tail`] over every sample.
pub fn windowed_tail(values: &[f64]) -> Option<Tail> {
    if values.len() < TAIL_WINDOW {
        return tail(values);
    }
    let tails: Vec<Tail> = values.chunks_exact(TAIL_WINDOW).filter_map(tail).collect();
    Some(Tail {
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        percentile: tails[0].percentile,
        n: tails.len() * TAIL_WINDOW,
        windows: tails.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the rule must sort before ranking.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).unwrap();
        assert_eq!(t.value, 0.0, "ten samples lie beyond the smallest");
        assert_eq!(t.n, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond() {
        for n in [11, 12, 50, 300, 1000] {
            let v = ramp(n);
            let t = tail(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        }
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.value, 989.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_p95s() {
        // Short runs fall back to the rule over every sample.
        assert_eq!(windowed_tail(&ramp(150)), tail(&ramp(150)));
        // Three windows of 200 ascending samples offset by 0, 1000 and
        // 5000, plus 50 samples past the last whole window.
        let mut v: Vec<f64> = Vec::new();
        for offset in [0.0, 1000.0, 5000.0] {
            v.extend((0..TAIL_WINDOW).map(|i| offset + i as f64));
        }
        v.extend(std::iter::repeat_n(1e9, 50));
        let t = windowed_tail(&v).unwrap();
        assert_eq!(t.windows, 3);
        assert_eq!(t.n, 3 * TAIL_WINDOW);
        assert_eq!(t.value, 1000.0 + (TAIL_WINDOW - 1 - TAIL_BEYOND) as f64);
        assert!((t.percentile - 95.0).abs() < 1e-9);
    }

    #[test]
    fn median_and_quantiles_use_raw_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.99), 98.0);
        assert_eq!(quantile(&v, 1.0), 99.0);
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
