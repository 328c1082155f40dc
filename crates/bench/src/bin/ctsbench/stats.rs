//! Segment quartiles and the "ten samples beyond" percentile rule.
//!
//! A whole-run mean on this box moves by 10% between identical runs because
//! one descheduled burst lands in it. Every timing the benchmark reports is
//! therefore a statistic computed per small segment of the run and then
//! summarised over segments — by their **lower quartile**, not their median:
//! the noise here is one-sided (a busy neighbour on the host can only slow a
//! segment down, for seconds at a time), so the quiet quarter of a run
//! estimates what the code costs, and over ten identical runs it moved half
//! as much as the median did (3.8% against 6.9% between quartiles).
//!
//! The price: the lower quartile does not see a cost that recurs in fewer
//! than three of four segments (work batched into every 1,024th event, say).
//! The per-segment values therefore travel with every number, `compare`
//! also holds the plain mean over segments ([`Stat::mean`]) against the
//! bound, and the traced run reports it as `event_mean_us`.

use serde::{Deserialize, Serialize};

/// Samples that must lie beyond a reported percentile in every segment.
pub const BEYOND: usize = 10;

/// One reported number with the evidence behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stat {
    /// The metric: the lower quartile of `segments`.
    pub value: f64,
    /// The per-segment statistic, in run order.
    pub segments: Vec<f64>,
    /// Raw samples behind the whole metric (events, bursts, registrations).
    pub samples: usize,
    /// False when a percentile had fewer than [`BEYOND`] samples beyond it
    /// (short `--quick` or `--seconds 1` runs); the value is still the best
    /// estimate but must not be compared.
    pub supported: bool,
}

impl Stat {
    /// A value measured once, with no segments behind it (a count, a size).
    pub fn single(value: f64) -> Self {
        Stat {
            value,
            segments: vec![value],
            samples: 1,
            supported: true,
        }
    }

    /// The lower quartile over per-segment values that together summarise
    /// `samples` raw samples.
    pub fn of_segments(segments: Vec<f64>, samples: usize) -> Self {
        Stat {
            value: lower_quartile(&segments),
            segments,
            samples,
            supported: true,
        }
    }

    /// The plain mean over segments: for a per-event timing cut into equal
    /// segments, total timed time over events. It carries every cost the
    /// lower quartile leaves out, and every stretch of host noise too.
    pub fn mean(&self) -> f64 {
        mean(&self.segments)
    }
}

/// Mean of `values`; 0 for none.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median of `values` (mean of the two middle values for an even count;
/// 0 for none, which only an empty `--quick` phase produces).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile of `values`, as Python's `statistics.quantiles(values,
/// n=4)[0]` computes it (exclusive method); the value itself for one value,
/// 0 for none.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let position = (n + 1) as f64 / 4.0;
    let below = (position.floor() as usize).clamp(1, n - 1);
    sorted[below - 1] + (sorted[below] - sorted[below - 1]) * (position - below as f64)
}

/// Nearest-rank percentile of an ascending slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a segment needs for percentile `p` to have [`BEYOND`] beyond it.
pub fn samples_needed(p: f64) -> usize {
    (BEYOND as f64 / (1.0 - p)).ceil() as usize
}

/// Percentile `p` of per-chunk samples under the segment rule: consecutive
/// chunks are grouped into the most segments that still leave every segment
/// [`samples_needed`] samples, the percentile is taken inside each segment,
/// and the metric is the lower quartile over segments. With too few samples
/// for even one segment the whole run is one unsupported segment.
pub fn segment_percentile<C: AsRef<[f64]>>(chunks: &[C], p: f64) -> Stat {
    let total: usize = chunks.iter().map(|c| c.as_ref().len()).sum();
    if total == 0 {
        return Stat {
            value: 0.0,
            segments: Vec::new(),
            samples: 0,
            supported: false,
        };
    }
    let need = samples_needed(p);
    let mut segments = Vec::new();
    let mut current: Vec<f64> = Vec::new();
    let mut remaining = total;
    for chunk in chunks.iter().map(AsRef::as_ref) {
        current.extend_from_slice(chunk);
        remaining -= chunk.len();
        // Close the segment only if what is left can fill another one;
        // otherwise the tail joins this segment.
        if current.len() >= need && remaining >= need {
            current.sort_by(f64::total_cmp);
            segments.push(percentile_sorted(&current, p));
            current.clear();
        }
    }
    let supported = current.len() >= need;
    current.sort_by(f64::total_cmp);
    segments.push(percentile_sorted(&current, p));
    Stat {
        value: lower_quartile(&segments),
        segments,
        samples: total,
        supported,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_outlier_segment_does_not_move_the_metric() {
        // Forty segments around 55 µs/event; one of them absorbed a 500 ms
        // stall over its 256 events (+1,953 µs/event).
        let mut segments: Vec<f64> = (0..40).map(|i| 54.0 + 0.05 * i as f64).collect();
        let clean = Stat::of_segments(segments.clone(), 10_240);
        segments[4] += 500_000.0 / 256.0;
        let stalled = Stat::of_segments(segments.clone(), 10_240);
        // The estimate moves by at most one step between neighbours.
        assert!((stalled.value - clean.value).abs() <= 0.05, "{stalled:?}");
        // The whole-run mean, by contrast, moves by 49 µs.
        let mean = segments.iter().sum::<f64>() / segments.len() as f64;
        assert!(mean - clean.value > 40.0);
        assert_eq!(stalled.segments.len(), 40);
        assert_eq!(stalled.samples, 10_240);
    }

    #[test]
    fn one_sided_noise_on_most_segments_moves_the_median_but_not_the_lower_quartile() {
        // A neighbour slows 60% of the run down by a fifth.
        let quiet: Vec<f64> = (0..40).map(|i| 100.0 + 0.01 * i as f64).collect();
        let noisy: Vec<f64> = quiet
            .iter()
            .enumerate()
            .map(|(i, v)| if i % 5 < 3 { v * 1.2 } else { *v })
            .collect();
        assert!(median(&noisy) > 119.0);
        let shift = lower_quartile(&noisy) - lower_quartile(&quiet);
        assert!(shift.abs() < 0.3, "{shift}");
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[]), 0.0);
        // statistics.quantiles([1, 2, 3, 4], n=4)[0] == 1.25
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.25);
    }

    #[test]
    fn a_cost_in_every_fourth_segment_hides_from_the_quartile_but_not_from_the_mean() {
        // Work batched into every 1,024th event: one 256-event segment in
        // four pays 150% more.
        let flat = Stat::of_segments(vec![100.0; 40], 10_240);
        let batched = Stat::of_segments(
            (0..40)
                .map(|i| if i % 4 == 3 { 250.0 } else { 100.0 })
                .collect(),
            10_240,
        );
        assert_eq!(batched.value, flat.value);
        assert_eq!(flat.mean(), 100.0);
        assert_eq!(batched.mean(), 137.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_in_every_segment() {
        assert_eq!(samples_needed(0.99), 1_000);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.999), 10_000);

        // 3 chunks of 999: not even the first chunk supports p99, so chunks
        // are merged: 1,998 closes a segment only if 1,000 remain (999 do
        // not), so everything becomes one supported segment.
        let chunk: Vec<f64> = (1..=999).map(f64::from).collect();
        let stat = segment_percentile(&[chunk.clone(), chunk.clone(), chunk.clone()], 0.99);
        assert!(stat.supported);
        assert_eq!(stat.segments.len(), 1);
        assert_eq!(stat.samples, 2_997);
        assert_eq!(stat.value, 990.0);

        // 4 chunks of 1,000: four segments, each with exactly ten beyond.
        let chunk: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let stat = segment_percentile(&vec![chunk; 4], 0.99);
        assert!(stat.supported);
        assert_eq!(stat.segments, vec![990.0; 4]);

        // 500 samples cannot support p99 at all: reported, but flagged.
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        let stat = segment_percentile(&[few], 0.99);
        assert!(!stat.supported);
        assert_eq!(stat.value, 495.0);
        assert!(!segment_percentile::<Vec<f64>>(&[], 0.5).supported);
    }

    #[test]
    fn a_stalled_segment_moves_its_own_p99_but_not_the_metric() {
        let calm: Vec<f64> = (0..1_000).map(|i| 100.0 + (i % 7) as f64).collect();
        let mut stalled = calm.clone();
        for sample in stalled.iter_mut().take(40) {
            *sample = 500_000.0;
        }
        let stat = segment_percentile(
            &[calm.clone(), stalled, calm.clone(), calm.clone(), calm],
            0.99,
        );
        assert_eq!(stat.segments.len(), 5);
        assert_eq!(stat.segments[1], 500_000.0);
        assert!(stat.value < 107.0, "{stat:?}");
    }
}
