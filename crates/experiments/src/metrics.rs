//! Evaluation metrics (Section 7 of the paper).

use serde::{Deserialize, Serialize};

use leaky_sim::{LrcRequest, NoiseParams, RoundRecord, RunRecord};

/// Per-shot speculation metrics extracted from one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Number of simulated rounds.
    pub rounds: usize,
    /// LRCs applied to data qubits that were *not* leaked at the time (false positives).
    pub false_positives: usize,
    /// (round, qubit) occurrences of a leaked data qubit that did not receive an LRC
    /// that round (false negatives / undetected leakage).
    pub false_negatives: usize,
    /// Total LRCs applied to data qubits.
    pub data_lrcs: usize,
    /// Total LRCs applied to parity qubits.
    pub ancilla_lrcs: usize,
    /// Average data-leakage population over the run (DLP).
    pub average_dlp: f64,
    /// Data-leakage population of the final round.
    pub final_dlp: f64,
    /// Per-round data-leakage population.
    pub dlp_series: Vec<f64>,
    /// Total simulated wall-clock time under the cycle-time model, in ns.
    pub total_time_ns: f64,
    /// The part of the wall-clock time attributable to LRC gadgets, in ns.
    pub lrc_time_ns: f64,
    /// Whether the decoded run ended in a logical error (only populated when decoding
    /// was requested).
    pub logical_error: Option<bool>,
}

impl RunMetrics {
    /// Scores a single simulated run. `lrc_time_ns` is the per-gadget latency used to
    /// attribute cycle-time overhead to leakage mitigation.
    #[must_use]
    pub fn score(run: &RunRecord, lrc_time_ns: f64) -> Self {
        let applied = run
            .rounds
            .iter()
            .map(|round| (&round.data_lrcs[..], round.ancilla_lrcs.len(), round.cycle_time_ns));
        Self::tally(run, applied, lrc_time_ns)
    }

    /// Scores a *replayed* speculation schedule against a recorded run: the
    /// policy's per-round planned LRCs (`planned`) are judged against the
    /// run's ground-truth leak flags, and the cycle-time model re-prices each
    /// round for the planned schedule.
    ///
    /// When `planned` equals the run's recorded schedule (replaying the
    /// policy that recorded the trace), this is **bit-for-bit identical** to
    /// [`RunMetrics::score`] of the live run: both run the same tally, and the
    /// simulator priced each round with the same [`NoiseParams::round_ns`].
    /// DLP fields always describe the recorded execution (a different
    /// policy's counterfactual leakage lifetimes are unknowable without
    /// re-simulating).
    ///
    /// # Panics
    /// Panics when `planned` and the run disagree on the round count.
    #[must_use]
    pub fn score_replay(
        run: &RunRecord,
        planned: &[LrcRequest],
        noise: &NoiseParams,
        cnot_layers: usize,
    ) -> Self {
        assert_eq!(planned.len(), run.rounds.len(), "one planned request per round");
        let priced = planned.iter().map(|plan| {
            (&plan.data[..], plan.ancilla.len(), noise.round_ns(cnot_layers, plan.len()))
        });
        Self::tally(run, priced, noise.lrc_time_ns)
    }

    /// The one scoring loop: each round's `(data LRCs, parity LRC count,
    /// round time)` is judged against the run's ground-truth leak flags, in
    /// round order, and the DLP fields are read off the run.
    fn tally<'a>(
        run: &RunRecord,
        schedule: impl Iterator<Item = (&'a [usize], usize, f64)>,
        lrc_time_ns: f64,
    ) -> Self {
        let mut false_positives = 0usize;
        let mut false_negatives = 0usize;
        let mut data_lrcs = 0usize;
        let mut ancilla_lrcs = 0usize;
        let mut total_time_ns = 0.0f64;
        for (round, (data, ancilla, time_ns)) in run.rounds.iter().zip(schedule) {
            data_lrcs += data.len();
            ancilla_lrcs += ancilla;
            false_positives += data.iter().filter(|&&q| !round.data_leak_before[q]).count();
            false_negatives += round
                .data_leak_before
                .iter()
                .enumerate()
                .filter(|&(q, &leaked)| leaked && !data.contains(&q))
                .count();
            total_time_ns += time_ns;
        }
        RunMetrics {
            rounds: run.num_rounds(),
            false_positives,
            false_negatives,
            data_lrcs,
            ancilla_lrcs,
            average_dlp: run.average_data_leak_fraction(),
            final_dlp: run.final_data_leak_fraction(),
            dlp_series: run.rounds.iter().map(RoundRecord::data_leak_fraction).collect(),
            total_time_ns,
            lrc_time_ns: lrc_time_ns * (data_lrcs + ancilla_lrcs) as f64,
            logical_error: None,
        }
    }

    /// Total LRC count (data + parity).
    #[must_use]
    pub fn total_lrcs(&self) -> usize {
        self.data_lrcs + self.ancilla_lrcs
    }

    /// Speculation inaccuracy: false positives plus false negatives, normalized per round.
    #[must_use]
    pub fn inaccuracy_per_round(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        (self.false_positives + self.false_negatives) as f64 / self.rounds as f64
    }
}

/// Aggregated metrics over many shots of one experiment configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AggregateMetrics {
    /// Number of shots aggregated.
    pub shots: usize,
    /// Mean false positives per shot.
    pub false_positives: f64,
    /// Mean false negatives per shot.
    pub false_negatives: f64,
    /// Mean data LRCs per shot.
    pub data_lrcs: f64,
    /// Mean parity LRCs per shot.
    pub ancilla_lrcs: f64,
    /// Mean data LRCs per round (the paper's "LRC usage rate").
    pub lrcs_per_round: f64,
    /// Mean data-leakage population over rounds and shots (DLP).
    pub average_dlp: f64,
    /// Mean final-round data-leakage population.
    pub final_dlp: f64,
    /// Per-round DLP averaged across shots.
    pub dlp_series: Vec<f64>,
    /// Mean speculation inaccuracy (FP + FN) per round.
    pub inaccuracy_per_round: f64,
    /// Mean total time per shot (ns).
    pub total_time_ns: f64,
    /// Mean LRC-attributable time per shot (ns).
    pub lrc_time_ns: f64,
    /// Logical error rate over the decoded shots, when decoding was enabled.
    pub logical_error_rate: Option<f64>,
}

impl AggregateMetrics {
    /// Aggregates a set of per-shot metrics.
    ///
    /// Implemented as a fold over a [`MetricsAccumulator`], so aggregating a
    /// complete run vector and pushing the same runs incrementally (in shot
    /// order, across any batch boundaries) execute the *same* sequence of
    /// f64 additions and produce bit-identical aggregates.
    #[must_use]
    pub fn from_runs(runs: &[RunMetrics]) -> Self {
        let mut acc = MetricsAccumulator::new();
        for run in runs {
            acc.push(run);
        }
        acc.finalize()
    }

    /// Normalized QEC cycle time in ns (total time divided by rounds), using the mean
    /// series length.
    #[must_use]
    pub fn cycle_time_ns(&self) -> f64 {
        if self.dlp_series.is_empty() {
            return 0.0;
        }
        self.total_time_ns / self.dlp_series.len() as f64
    }
}

/// Incremental, checkpointable aggregation state for [`RunMetrics`].
///
/// Runs are pushed **in shot order**; the accumulator keeps plain left-fold
/// partial sums (never running means), so its state after shot `k` is a pure
/// function of shots `0..=k` — independent of how the stream was batched.
/// Persisting every field bit-exactly (the adaptive sweep checkpoint stores
/// each f64 via its raw IEEE-754 bits) and restoring it mid-stream therefore
/// continues the *same* addition sequence, and [`MetricsAccumulator::finalize`]
/// yields aggregates byte-identical to an uninterrupted
/// [`AggregateMetrics::from_runs`] over the whole stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsAccumulator {
    /// Shots pushed so far.
    pub shots: usize,
    /// Sum of per-shot false positives.
    pub false_positives: f64,
    /// Sum of per-shot false negatives.
    pub false_negatives: f64,
    /// Sum of per-shot data LRC counts.
    pub data_lrcs: f64,
    /// Sum of per-shot parity LRC counts.
    pub ancilla_lrcs: f64,
    /// Sum of per-shot round counts.
    pub rounds: f64,
    /// Sum of per-shot average DLP.
    pub average_dlp: f64,
    /// Sum of per-shot final-round DLP.
    pub final_dlp: f64,
    /// Per-round DLP sums (index = round; grown to the longest series seen).
    pub dlp_series: Vec<f64>,
    /// Sum of per-shot speculation inaccuracy per round.
    pub inaccuracy_per_round: f64,
    /// Sum of per-shot total times (ns).
    pub total_time_ns: f64,
    /// Sum of per-shot LRC-attributable times (ns).
    pub lrc_time_ns: f64,
    /// Shots that carried a decode verdict.
    pub decoded: usize,
    /// Decoded shots that ended in a logical error.
    pub errors: usize,
    /// Shots whose final-round DLP was non-zero (the Bernoulli proxy for
    /// cells swept without a decoder).
    pub dlp_events: usize,
}

impl MetricsAccumulator {
    /// A fresh, empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        MetricsAccumulator::default()
    }

    /// Folds one run into the partial sums. Callers must push runs in shot
    /// order to keep the f64 addition sequence canonical.
    pub fn push(&mut self, run: &RunMetrics) {
        self.shots += 1;
        self.false_positives += run.false_positives as f64;
        self.false_negatives += run.false_negatives as f64;
        self.data_lrcs += run.data_lrcs as f64;
        self.ancilla_lrcs += run.ancilla_lrcs as f64;
        self.rounds += run.rounds as f64;
        self.average_dlp += run.average_dlp;
        self.final_dlp += run.final_dlp;
        if self.dlp_series.len() < run.dlp_series.len() {
            self.dlp_series.resize(run.dlp_series.len(), 0.0);
        }
        for (i, &v) in run.dlp_series.iter().enumerate() {
            self.dlp_series[i] += v;
        }
        self.inaccuracy_per_round += run.inaccuracy_per_round();
        self.total_time_ns += run.total_time_ns;
        self.lrc_time_ns += run.lrc_time_ns;
        if let Some(error) = run.logical_error {
            self.decoded += 1;
            if error {
                self.errors += 1;
            }
        }
        if run.final_dlp > 0.0 {
            self.dlp_events += 1;
        }
    }

    /// The `(failures, trials)` Bernoulli tally driving adaptive stopping:
    /// decoded logical errors over decoded shots when decoding ran, otherwise
    /// shots that ended with a non-zero final DLP over all shots (the
    /// leakage-population proxy for cells swept without a decoder).
    #[must_use]
    pub fn bernoulli_tally(&self) -> (u64, u64) {
        if self.decoded > 0 {
            (self.errors as u64, self.decoded as u64)
        } else {
            (self.dlp_events as u64, self.shots as u64)
        }
    }

    /// Divides the partial sums into the final [`AggregateMetrics`]. Every
    /// mean is a single `sum / n` at the end, so the result depends only on
    /// the accumulated state, not on when (or how often) it is finalized.
    #[must_use]
    pub fn finalize(&self) -> AggregateMetrics {
        if self.shots == 0 {
            return AggregateMetrics::default();
        }
        let n = self.shots as f64;
        let rounds_mean = (self.rounds / n).max(1.0);
        let logical_error_rate =
            (self.decoded > 0).then(|| self.errors as f64 / self.decoded as f64);
        AggregateMetrics {
            shots: self.shots,
            false_positives: self.false_positives / n,
            false_negatives: self.false_negatives / n,
            data_lrcs: self.data_lrcs / n,
            ancilla_lrcs: self.ancilla_lrcs / n,
            lrcs_per_round: self.data_lrcs / n / rounds_mean,
            average_dlp: self.average_dlp / n,
            final_dlp: self.final_dlp / n,
            dlp_series: self.dlp_series.iter().map(|&sum| sum / n).collect(),
            inaccuracy_per_round: self.inaccuracy_per_round / n,
            total_time_ns: self.total_time_ns / n,
            lrc_time_ns: self.lrc_time_ns / n,
            logical_error_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_sim::{policy::NeverLrc, LrcRequest, NoiseParams, Simulator};
    use qec_codes::Code;

    fn quiet_noise() -> NoiseParams {
        NoiseParams::builder()
            .physical_error_rate(0.0)
            .leakage_ratio(0.0)
            .mobility(0.0)
            .mlr_false_flag(0.0)
            .build()
    }

    #[test]
    fn unnecessary_lrc_counts_as_false_positive() {
        let code = Code::rotated_surface(3);
        let mut sim = Simulator::new(&code, quiet_noise(), 1);
        let mut policy = CountingPolicy { fire_round: 0 };
        let run = sim.run_with_policy(&mut policy, 2);
        let metrics = RunMetrics::score(&run, 100.0);
        assert_eq!(metrics.false_positives, 2);
        assert_eq!(metrics.false_negatives, 0);
        assert_eq!(metrics.data_lrcs, 2);
    }

    /// Test helper: requests two data LRCs in one specific round, nothing otherwise.
    struct CountingPolicy {
        fire_round: usize,
    }

    impl leaky_sim::LeakagePolicy for CountingPolicy {
        fn name(&self) -> &str {
            "counting"
        }
        fn plan_lrcs(&mut self, ctx: &leaky_sim::PolicyContext<'_>) -> LrcRequest {
            if ctx.round == self.fire_round {
                LrcRequest { data: vec![0, 1], ancilla: vec![] }
            } else {
                LrcRequest::none()
            }
        }
    }

    #[test]
    fn unmitigated_leak_counts_as_false_negative_every_round() {
        let code = Code::rotated_surface(3);
        let mut sim = Simulator::new(&code, quiet_noise(), 2);
        sim.inject_data_leakage(4);
        let run = sim.run_with_policy(&mut NeverLrc, 5);
        let metrics = RunMetrics::score(&run, 100.0);
        assert_eq!(metrics.false_negatives, 5);
        assert_eq!(metrics.false_positives, 0);
        assert!(metrics.average_dlp > 0.0);
        assert!((metrics.final_dlp - 1.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_means_are_consistent() {
        let code = Code::rotated_surface(3);
        let runs: Vec<RunMetrics> = (0..4)
            .map(|seed| {
                let mut sim = Simulator::new(&code, NoiseParams::default(), seed);
                let run = sim.run_with_policy(&mut NeverLrc, 10);
                RunMetrics::score(&run, 100.0)
            })
            .collect();
        let agg = AggregateMetrics::from_runs(&runs);
        assert_eq!(agg.shots, 4);
        assert_eq!(agg.dlp_series.len(), 10);
        let manual: f64 = runs.iter().map(|r| r.false_negatives as f64).sum::<f64>() / 4.0;
        assert!((agg.false_negatives - manual).abs() < 1e-12);
        assert!(agg.logical_error_rate.is_none());
    }

    #[test]
    fn empty_aggregate_is_all_zero() {
        let agg = AggregateMetrics::from_runs(&[]);
        assert_eq!(agg.shots, 0);
        assert!(agg.dlp_series.is_empty());
    }

    #[test]
    fn incremental_accumulation_is_bit_identical_across_batch_boundaries() {
        let code = Code::rotated_surface(3);
        let runs: Vec<RunMetrics> = (0..7)
            .map(|seed| {
                let mut sim = Simulator::new(&code, NoiseParams::default(), seed);
                let run = sim.run_with_policy(&mut NeverLrc, 8);
                RunMetrics::score(&run, 100.0)
            })
            .collect();
        let whole = AggregateMetrics::from_runs(&runs);
        // Any batching of the same shot-ordered stream must finalize to the
        // exact same bytes (this is the adaptive resume oracle's foundation).
        for split in [1usize, 2, 3, 6] {
            let mut acc = MetricsAccumulator::new();
            for run in &runs[..split] {
                acc.push(run);
            }
            // A mid-stream finalize must not perturb later pushes.
            let _ = acc.finalize();
            for run in &runs[split..] {
                acc.push(run);
            }
            let batched = acc.finalize();
            assert_eq!(batched, whole, "split at {split}");
            assert_eq!(
                serde_json::to_string(&batched).unwrap(),
                serde_json::to_string(&whole).unwrap(),
                "split at {split}"
            );
        }
        let mut acc = MetricsAccumulator::new();
        runs.iter().for_each(|r| acc.push(r));
        assert_eq!(acc.bernoulli_tally().1, 7, "undecoded runs tally over all shots");
    }

    #[test]
    fn inaccuracy_combines_fp_and_fn() {
        let metrics = RunMetrics {
            rounds: 10,
            false_positives: 3,
            false_negatives: 7,
            data_lrcs: 3,
            ancilla_lrcs: 0,
            average_dlp: 0.0,
            final_dlp: 0.0,
            dlp_series: vec![0.0; 10],
            total_time_ns: 0.0,
            lrc_time_ns: 0.0,
            logical_error: None,
        };
        assert!((metrics.inaccuracy_per_round() - 1.0).abs() < 1e-12);
        assert_eq!(metrics.total_lrcs(), 3);
    }
}
