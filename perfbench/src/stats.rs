//! Sample arithmetic: percentiles with a minimum tail, medians, and
//! failure counting.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a tail figure never rests on a handful of frames.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `samples`.
///
/// Refuses (with the reason) when fewer than [`MIN_BEYOND`] samples lie
/// beyond the chosen rank: p95 therefore needs at least 200 samples.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p <= 1.0) {
        return Err(format!("percentile p={p} of {n} samples is undefined"));
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})",
            p * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a small sample set (no tail requirement): the middle value,
/// or the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Frames lost in one serving round: each session delivers its frames in
/// submission order and abandons the rest after a failure, so whatever it
/// submitted but did not deliver counts as failed.
pub fn abandoned(submitted: &[usize], delivered: &[usize]) -> u64 {
    submitted
        .iter()
        .zip(delivered)
        .map(|(&s, &d)| s.saturating_sub(d) as u64)
        .sum()
}

/// Failed frames as a share of attempted frames (0 when none attempted).
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(percentile(&samples, 0.95).is_err());
        let samples: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.95), Ok(189.0));
        assert_eq!(percentile(&samples, 0.5), Ok(99.0));
    }

    #[test]
    fn percentile_refuses_small_sets_even_for_the_median() {
        assert!(percentile(&[1.0; 19], 0.5).is_err());
        assert_eq!(percentile(&[1.0; 20], 0.5), Ok(1.0));
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&[1.0; 100], 0.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..100).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.5), Ok(49.0));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_frac_counts_abandoned_frames() {
        // Four sessions submitted two frames each; session 1 failed on its
        // first frame and abandoned the second, session 3 failed on its
        // second frame.
        let lost = abandoned(&[2, 2, 2, 2], &[2, 0, 2, 1]);
        assert_eq!(lost, 3);
        assert_eq!(failed_frac(8, lost), 3.0 / 8.0);
        assert_eq!(failed_frac(8, abandoned(&[2; 4], &[2; 4])), 0.0);
        assert_eq!(failed_frac(0, 0), 0.0);
    }
}
