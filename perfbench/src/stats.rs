//! Exact percentiles over raw samples (nearest rank), never read off
//! histogram buckets.

/// One percentile of a sample set, with the support behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the chosen rank.
    pub beyond: usize,
}

impl Percentile {
    /// At least ten samples lie beyond the rank, so the value is not one
    /// outlier.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `q` (in `(0, 100]`) of `samples`: the smallest
/// sample such that at least `q`% of all samples are at or below it. `None`
/// for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Percentile `q` taken per window, and the median over the windows: the
/// samples are ordered by start time and cut into as many consecutive
/// windows of at least `min_window` samples as they fill (at least one).
/// Each window's value is an exact nearest-rank percentile; the median over
/// windows keeps one burst of host noise from setting a run's tail. `None`
/// for an empty set.
pub fn windowed_percentile(
    timed: &[(u64, f64)],
    q: f64,
    min_window: usize,
) -> Option<(f64, Vec<Percentile>)> {
    let mut sorted = timed.to_vec();
    sorted.sort_by_key(|&(at, _)| at);
    let windows = (sorted.len() / min_window.max(1)).max(1);
    let per = sorted.len() / windows;
    let picks: Vec<Percentile> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                sorted.len()
            } else {
                (w + 1) * per
            };
            let values: Vec<f64> = sorted[w * per..end].iter().map(|&(_, v)| v).collect();
            percentile(&values, q)
        })
        .collect::<Option<_>>()?;
    let values: Vec<f64> = picks.iter().map(|p| p.value).collect();
    Some((median(&values), picks))
}

/// The median over the whole windows of `window_ns` in `[start_ns, end_ns)`
/// of each window's rate (amount per second), and every window's rate.
/// Events are `(at_ns, amount)`; a partial window at the end is left out.
/// `None` when not one whole window fits.
pub fn windowed_rate(
    events: &[(u64, u64)],
    start_ns: u64,
    end_ns: u64,
    window_ns: u64,
) -> Option<(f64, Vec<f64>)> {
    let windows = (end_ns.saturating_sub(start_ns) / window_ns.max(1)) as usize;
    if windows == 0 {
        return None;
    }
    let mut sums = vec![0u64; windows];
    for &(at, amount) in events {
        if let Some(sum) = at
            .checked_sub(start_ns)
            .and_then(|d| sums.get_mut((d / window_ns) as usize))
        {
            *sum += amount;
        }
    }
    let rates: Vec<f64> = sums
        .iter()
        .map(|&s| s as f64 / (window_ns as f64 / 1e9))
        .collect();
    Some((median(&rates), rates))
}

/// The nearest-rank median, 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// SplitMix64: the benchmark's seeded stream of pseudo-random numbers.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0).unwrap().value, 5.0);
        assert_eq!(percentile(&s, 90.0).unwrap().value, 9.0);
        assert_eq!(percentile(&s, 91.0).unwrap().value, 10.0);
        assert_eq!(percentile(&s, 100.0).unwrap().value, 10.0);
        assert_eq!(percentile(&s, 0.1).unwrap().value, 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 50.0), percentile(&s, 50.0));
    }

    #[test]
    fn values_are_samples_not_bucket_edges() {
        let s = [65.1, 70.3, 99.9, 1000.25];
        for q in [25.0, 50.0, 75.0, 99.0] {
            let v = percentile(&s, q).unwrap().value;
            assert!(s.contains(&v), "{v} is not a sample");
        }
    }

    #[test]
    fn support_counts_samples_beyond_the_rank() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&s, 99.0).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (989.0, 1000, 10));
        assert!(p99.supported());
        let small: Vec<f64> = (0..500).map(f64::from).collect();
        let p99 = percentile(&small, 99.0).unwrap();
        assert_eq!(p99.beyond, 5);
        assert!(!p99.supported());
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_percentiles() {
        // 3,000 samples in time order: a burst of slow samples in the first
        // window only. Three windows of 1,000.
        let timed: Vec<(u64, f64)> = (0..3000u64)
            .map(|i| {
                (
                    i,
                    if i < 50 {
                        100.0
                    } else {
                        (i % 1000) as f64 / 100.0
                    },
                )
            })
            .collect();
        let (value, windows) = windowed_percentile(&timed, 99.0, 1000).unwrap();
        assert_eq!(windows.len(), 3);
        assert!(windows.iter().all(|w| w.samples == 1000 && w.supported()));
        assert_eq!(windows[0].value, 100.0);
        assert_eq!(windows[1].value, 9.89);
        assert_eq!(value, 9.89);
        // Too few samples for two windows: one window over all of them,
        // whatever the input order.
        let mut few: Vec<(u64, f64)> = (0..1500u64).map(|i| (i, i as f64)).collect();
        few.reverse();
        let (v, w) = windowed_percentile(&few, 50.0, 1000).unwrap();
        assert_eq!((v, w.len(), w[0].samples), (749.0, 1, 1500));
        assert!(windowed_percentile(&[], 99.0, 1000).is_none());
    }

    #[test]
    fn windowed_rate_takes_the_median_of_whole_windows() {
        let s = 1_000_000_000u64;
        // Windows [10s, 11s), [11s, 12s), [12s, 13s); 13.5 s is a partial
        // window and events before the start or after it are ignored.
        let events = [
            (9 * s, 100),
            (10 * s, 5),
            (10 * s + 1, 5),
            (11 * s + s / 2, 30),
            (12 * s, 7),
            (13 * s + 1, 1000),
        ];
        let (median_rate, rates) = windowed_rate(&events, 10 * s, 13 * s + s / 2, s).unwrap();
        assert_eq!(rates, vec![10.0, 30.0, 7.0]);
        assert_eq!(median_rate, 10.0);
        // Half-second windows report per second.
        let (_, rates) = windowed_rate(&events[1..3], 10 * s, 11 * s, s / 2).unwrap();
        assert_eq!(rates, vec![20.0, 0.0]);
        assert!(windowed_rate(&events, 10 * s, 10 * s + s / 2, s).is_none());
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.5]), 3.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
