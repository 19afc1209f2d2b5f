//! Order statistics over raw samples.

/// The `p`-quantile (0 ≤ p ≤ 1) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `p` of the samples at or below it.
/// Sorts `samples`; `None` for no samples.
pub fn quantile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The median, averaging the two middle samples of an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(500.0));
        assert_eq!(quantile(&mut v, 0.99), Some(990.0));
        assert_eq!(quantile(&mut v, 1.0), Some(1000.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
