//! Order statistics for the benchmark's samples.
//!
//! Percentiles are nearest-rank over the sorted samples, so a reported
//! latency is always one that was actually observed. Quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (its default "exclusive"
//! method), which is how the spread of repeated runs is judged, so the
//! benchmark and its judge agree on q1 and q3. Timed work is estimated by
//! [`fastest_steps`], the best of repeated rounds step by step.

/// Percentiles the benchmark will name, lowest first.
const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Fewest samples that must lie strictly above a percentile before it is
/// reported.
const TAIL_SAMPLES: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`, which must
/// be in ascending order: the smallest sample with at least `p` percent of
/// the samples at or below it. `None` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// The nearest rank of the `p`-th percentile among `n` samples:
/// `ceil(p * n / 100)`, computed so that decimal percentiles such as 99.9
/// do not round up past an exact rank.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The median: the middle sample, or the mean of the two middle samples.
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The arithmetic mean. `None` for no samples.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// computes them; a single sample is its own quartiles. `None` for no
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 with at
/// least [`TAIL_SAMPLES`] of `n` samples strictly above it, or `None` when
/// not even the median has.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_SAMPLES)
}

/// Median, quartiles and sample count of one metric's per-round values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the rounds.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of rounds.
    pub samples: usize,
}

/// Summarizes per-round values: their median, quartiles and count.
/// `None` for no rounds.
pub fn median_of_rounds(rounds: &[f64]) -> Option<Summary> {
    let (q1, q3) = quartiles(rounds)?;
    Some(Summary {
        median: median(rounds)?,
        q1,
        q3,
        samples: rounds.len(),
    })
}

/// The time of a fixed sequence of steps, repeated once per round, as the
/// sum over steps of each step's fastest round: `rounds[r][j]` is the
/// seconds step `j` took in round `r`. A step missing from some rounds
/// takes its fastest among the rest. `None` for no steps.
///
/// Noise only ever adds time, so each step's minimum is the estimate
/// closest to its cost. Taking it step by step lets a short quiet spell in
/// any round count for the steps it covered.
pub fn fastest_steps(rounds: &[Vec<f64>]) -> Option<f64> {
    let steps = rounds.iter().map(Vec::len).max().filter(|&n| n > 0)?;
    let fastest = |step: usize| {
        rounds
            .iter()
            .filter_map(|round| round.get(step).copied())
            .fold(f64::INFINITY, f64::min)
    };
    Some((0..steps).map(fastest).sum())
}

/// `values` sorted ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_statistics() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median_of_rounds(&[]), None);
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(fastest_steps(&[]), None);
        assert_eq!(fastest_steps(&[vec![], vec![]]), None);
    }

    #[test]
    fn fastest_steps_sums_each_steps_best_round() {
        let rounds = [
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.0],
            vec![9.0, 9.0, 6.0],
        ];
        assert_eq!(fastest_steps(&rounds), Some(2.0 + 1.0 + 5.0));
        assert_eq!(fastest_steps(&[vec![0.5, 0.25]]), Some(0.75), "one round");
        let ragged = [vec![3.0], vec![2.0, 4.0]];
        assert_eq!(fastest_steps(&ragged), Some(6.0), "a step some rounds lack");
    }

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(5.0));
        assert_eq!(percentile(&sorted, 90.0), Some(9.0));
        assert_eq!(percentile(&sorted, 91.0), Some(10.0));
        assert_eq!(percentile(&sorted, 100.0), Some(10.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0), "clamped to the first");
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn ties_are_reported_as_observed() {
        let sorted = [1.0, 2.0, 2.0, 2.0, 3.0];
        assert_eq!(percentile(&sorted, 50.0), Some(2.0));
        assert_eq!(percentile(&sorted, 80.0), Some(2.0));
        assert_eq!(median(&sorted), Some(2.0));
        assert_eq!(quartiles(&[4.0; 6]), Some((4.0, 4.0)));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(mean(&[4.0, 1.0, 1.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), Some((4.0, 10.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    }

    #[test]
    fn median_of_rounds_reports_spread_and_count() {
        let summary = median_of_rounds(&[10.0, 30.0, 20.0, 40.0, 50.0]).unwrap();
        assert_eq!(summary.median, 30.0);
        assert_eq!(summary.samples, 5);
        assert_eq!((summary.q1, summary.q3), (15.0, 45.0));
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(9), None, "n < 10");
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(2000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
