//! The benchmark's one percentile implementation: nearest-rank on the
//! sorted raw samples. (`igp_obs::Histogram` buckets in ⅛ octaves, which
//! would quantise a 5 % regression bound away.)

/// A percentile is only reported when at least this many samples lie
/// beyond it — p95 therefore needs 200 samples, p50 needs 20.
pub const MIN_BEYOND: usize = 10;

/// Sort samples ascending (NaN-free by construction: every sample is a
/// duration or a count).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    xs
}

/// Nearest-rank quantile `q ∈ (0, 1]` of an ascending slice: the
/// smallest sample with at least `q·n` samples at or below it. `None`
/// on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted samples (nearest rank; the lower middle on even
/// counts, so the value is always one that was measured).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile_sorted(&sorted(xs.to_vec()), 0.5)
}

/// Arithmetic mean; `None` on an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// `q`-quantile of unsorted samples, refused (`None`) unless at least
/// [`MIN_BEYOND`] samples lie strictly beyond the reported rank.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize;
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    quantile_sorted(&sorted(xs.to_vec()), q)
}

/// Run-to-run spread as the contract defines it: the distance between
/// the first and third quartile (Python's
/// `statistics.quantiles(values, n=4)`, exclusive method) as a share of
/// the median. `None` with fewer than two values or a zero median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs.to_vec());
    let cut = |k: f64| -> f64 {
        // Exclusive method: position k·(n+1)/4 on 1-based ranks; the
        // bracketing pair is clamped to the sample range but the
        // interpolation is not, so few values extrapolate as Python does.
        let pos = k * (s.len() as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        s[lo - 1] + (pos - lo as f64) * (s[lo] - s[lo - 1])
    };
    let med = cut(2.0);
    (med != 0.0).then(|| (cut(3.0) - cut(1.0)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), Some(5.0));
        assert_eq!(quantile_sorted(&s, 0.95), Some(10.0));
        assert_eq!(quantile_sorted(&s, 0.1), Some(1.0));
        assert_eq!(quantile_sorted(&s, 1.0), Some(10.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn reported_values_are_raw_samples_not_bucket_edges() {
        // 5 % apart: an eighth-octave histogram (≈ 9 % buckets) would
        // report both as the same bucket.
        let a = vec![100.0; 50];
        let b = vec![105.0; 50];
        assert_eq!(median(&a), Some(100.0));
        assert_eq!(median(&b), Some(105.0));
    }

    #[test]
    fn p95_is_refused_below_200_samples() {
        let xs: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.95), None);
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        // rank ⌈0.95·200⌉ = 190 → sample 189; exactly 10 beyond it.
        assert_eq!(tail_quantile(&xs, 0.95), Some(189.0));
        // The median needs only 20.
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.5), Some(9.0));
        assert_eq!(tail_quantile(&xs[..19], 0.5), None);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_share(&xs).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] — the
        // exclusive method extrapolates past both ends on two values.
        let got = iqr_share(&[1.0, 2.0]).unwrap();
        assert!((got - 1.0).abs() < 1e-12, "{got}");
        assert_eq!(iqr_share(&[1.0]), None);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }
}
