//! The Monte-Carlo batch engine: prebuilt artifacts + per-thread contexts.
//!
//! [`BatchEngine`] is the throughput-oriented execution path for
//! [`ExperimentSpec`]s. Where the legacy per-shot path
//! ([`crate::harness::simulate_shot`]) rebuilds the offline GLADIATOR model, the
//! policy and a fresh [`Simulator`] for *every shot*, the engine builds each
//! code-derived artifact exactly once per experiment:
//!
//! * the [`PolicyFactory`] lazily builds the offline model / extractor / colouring
//!   once and shares them behind `Arc` with every policy instance,
//! * the union-find decoder and its space–time [`MatchingGraph`] are built once
//!   when decoding is requested,
//! * each rayon worker thread gets one long-lived [`Simulator`] + policy pair
//!   (a `ShotContext`), re-used across all shots the thread executes,
//! * across a *set* of policies ([`run_policy_set`]), one factory and one decoder
//!   serve every engine, so e.g. GLADIATOR+M and GLADIATOR-D+M share a single
//!   offline model build.
//!
//! # Seeding contract
//!
//! Shot `i` is simulated with RNG seed `spec.seed + i` (wrapping), exactly like
//! the legacy path: the worker calls [`Simulator::reseed`] (bit-identical to a
//! fresh construction) and [`LeakagePolicy::reset`] before every shot, so results
//! are **independent of thread count and scheduling** and bit-for-bit equal to
//! `simulate_shot` for every shot index. The determinism tests in
//! `crates/experiments/tests/batch_engine.rs` enforce this equivalence for every
//! [`PolicyKind`].

use std::sync::Arc;

use rayon::prelude::*;

use leakage_speculation::{PolicyFactory, PolicyKind};
use leaky_sim::{LeakagePolicy, RunRecord, Simulator};
use qec_codes::{CheckBasis, Code, MatchingGraph};
use qec_decoder::{logical_failure, DecoderBackend, DecoderKind, MemoryBasis, UnionFindDecoder};

use crate::harness::{ExperimentSpec, PolicyExperimentResult};
use crate::metrics::{AggregateMetrics, RunMetrics};

/// Reusable Monte-Carlo executor for one `(code, spec)` pair.
///
/// Construction cost is paid once; [`BatchEngine::run`], [`BatchEngine::map_records`]
/// and [`BatchEngine::run_records`] can then be called repeatedly (results are
/// deterministic functions of the spec). See the module docs for the seeding
/// contract.
#[derive(Debug)]
pub struct BatchEngine {
    spec: ExperimentSpec,
    factory: Arc<PolicyFactory>,
    decoder: Option<Arc<dyn DecoderBackend>>,
}

/// Per-worker-thread simulation state: one simulator and one policy instance,
/// reseeded/reset for every shot the thread picks up.
struct ShotContext {
    sim: Simulator,
    policy: Box<dyn LeakagePolicy + Send>,
}

/// Builds the shared union-find decoder for `rounds` noisy rounds plus the
/// final perfect measurement layer (`rounds + 1` graph layers).
#[must_use]
pub fn build_decoder(code: &Code, rounds: usize) -> Arc<UnionFindDecoder> {
    let graph = MatchingGraph::build(code, CheckBasis::Z, rounds + 1);
    Arc::new(UnionFindDecoder::new(graph))
}

/// Builds the selected decoder backend for `rounds` noisy rounds plus the
/// final perfect measurement layer. `None` selects union-find, the legacy
/// default of every path that predates backend selection.
///
/// # Errors
/// Returns the backend's validation error (unknown-family / d≠3 for the
/// lookup table, unmatchable code for union-find, selected or implied)
/// instead of panicking.
pub fn build_backend(
    kind: Option<DecoderKind>,
    code: &Code,
    rounds: usize,
) -> Result<Arc<dyn DecoderBackend>, String> {
    kind.unwrap_or(DecoderKind::UnionFind).build(code, rounds + 1)
}

impl BatchEngine {
    /// Builds the engine, eagerly constructing the decoder (when `spec.decode`)
    /// and the policy factory's shared artifacts for `spec.policy`.
    #[must_use]
    pub fn new(code: &Code, spec: &ExperimentSpec) -> Self {
        let decoder =
            spec.decode.then(|| -> Arc<dyn DecoderBackend> { build_decoder(code, spec.rounds) });
        let factory = Arc::new(PolicyFactory::new(code, &spec.gladiator));
        Self::with_shared(spec, factory, decoder)
    }

    /// Builds the engine around an existing factory (and decoder), so several
    /// engines — e.g. one per policy in a comparison — share one set of offline
    /// artifacts. The factory's code and calibration must match the spec.
    #[must_use]
    pub fn with_shared(
        spec: &ExperimentSpec,
        factory: Arc<PolicyFactory>,
        decoder: Option<Arc<dyn DecoderBackend>>,
    ) -> Self {
        assert_eq!(
            factory.config(),
            &spec.gladiator,
            "shared factory calibration must match the spec"
        );
        assert_eq!(decoder.is_some(), spec.decode, "decoder presence must match spec.decode");
        if let Some(decoder) = &decoder {
            assert_eq!(
                decoder.layers(),
                spec.rounds + 1,
                "shared decoder must cover spec.rounds + 1 measurement layers"
            );
        }
        // Force the shared artifacts now so the parallel phase starts hot and the
        // "built exactly once" property is trivially independent of thread timing.
        drop(factory.build(spec.policy));
        BatchEngine { spec: spec.clone(), factory, decoder }
    }

    /// The experiment specification driving this engine.
    #[must_use]
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The code under test.
    #[must_use]
    pub fn code(&self) -> &Code {
        self.factory.code()
    }

    /// The shared policy factory (exposed for artifact-sharing assertions).
    #[must_use]
    pub fn policy_factory(&self) -> &PolicyFactory {
        &self.factory
    }

    /// The prebuilt decoder backend, when decoding was requested.
    #[must_use]
    pub fn decoder(&self) -> Option<&dyn DecoderBackend> {
        self.decoder.as_deref()
    }

    fn context(&self) -> ShotContext {
        ShotContext {
            sim: Simulator::new(self.code(), self.spec.noise, self.spec.seed),
            policy: self.factory.build(self.spec.policy),
        }
    }

    /// Simulates shot `shot` in `ctx`, leaving the context ready for the next
    /// shot. The simulator side of the ritual is
    /// [`Simulator::reseed_for_shot`] (`seed + shot`, optional leakage
    /// sampling) — the same entry point closed-loop replay uses for divergence
    /// repair — plus the policy reset, so every execution path, traced, live
    /// or replayed, prepares shots identically and recorded traces can never
    /// drift from live runs.
    fn simulate_observed<S: leaky_sim::TraceSink>(
        &self,
        ctx: &mut ShotContext,
        shot: u64,
        sink: &mut S,
    ) -> RunRecord {
        ctx.sim.reseed_for_shot(self.spec.seed, shot, self.spec.leakage_sampling);
        ctx.policy.reset();
        ctx.sim.run_with_policy_observed(ctx.policy.as_mut(), self.spec.rounds, sink)
    }

    /// Simulates shot `shot` in `ctx` without observation.
    fn simulate_into(&self, ctx: &mut ShotContext, shot: u64) -> RunRecord {
        self.simulate_observed(ctx, shot, &mut leaky_sim::NullTraceSink)
    }

    fn score(&self, ctx: &mut ShotContext, shot: u64) -> RunMetrics {
        let run = self.simulate_into(ctx, shot);
        let mut metrics = RunMetrics::score(&run, self.spec.noise.lrc_time_ns);
        if let Some(decoder) = &self.decoder {
            let correction = decoder.decode_run(&run);
            metrics.logical_error =
                Some(logical_failure(self.code(), &run, &correction, MemoryBasis::Z));
        }
        metrics
    }

    /// Runs all shots in parallel and aggregates the metrics.
    #[must_use]
    pub fn run(&self) -> PolicyExperimentResult {
        let runs = self.score_range(0, self.spec.shots as u64);
        PolicyExperimentResult {
            policy: self.spec.policy.label().to_string(),
            code: self.code().name().to_string(),
            shots: self.spec.shots,
            rounds: self.spec.rounds,
            metrics: AggregateMetrics::from_runs(&runs),
        }
    }

    /// Scores the shots `start..end` (bounded by the spec's shot count) in
    /// parallel, returned in shot order — the chunked building block behind
    /// adaptive shot allocation. Exactly like
    /// [`BatchEngine::trace_records_range`], chunking cannot change a single
    /// bit: shot `i` is a pure function of `seed + i`, whatever range it
    /// lands in, so concatenating the results of consecutive ranges equals
    /// one big range and [`BatchEngine::run`] is itself implemented as
    /// `score_range(0, shots)`.
    #[must_use]
    pub fn score_range(&self, start: u64, end: u64) -> Vec<RunMetrics> {
        let end = end.min(self.spec.shots as u64);
        (start..end)
            .into_par_iter()
            .map_init(|| self.context(), |ctx, shot| self.score(ctx, shot))
            .collect()
    }

    /// Runs all shots in parallel, mapping each raw [`RunRecord`] through
    /// `extract` on the worker thread and returning the per-shot results in shot
    /// order. The record is dropped right after extraction, so peak memory is
    /// `O(shots · |R|)` rather than `O(shots · rounds · qubits)` — use this (not
    /// [`BatchEngine::run_records`]) for paper-scale shot counts.
    #[must_use]
    pub fn map_records<R, F>(&self, extract: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64, &RunRecord) -> R + Sync,
    {
        (0..self.spec.shots as u64)
            .into_par_iter()
            .map_init(
                || self.context(),
                |ctx, shot| {
                    let run = self.simulate_into(ctx, shot);
                    extract(shot, &run)
                },
            )
            .collect()
    }

    /// Runs all shots in parallel, recording each one into a
    /// [`qec_trace::ShotTrace`], returned in shot order.
    ///
    /// The traced runs follow the exact seeding contract of [`BatchEngine::run`]
    /// (observation never touches the RNG stream), and the shot-ordered return
    /// is what makes serialized trace bytes **independent of worker-thread
    /// count**: the writer consumes this vector sequentially.
    ///
    /// Materializes every shot of the run; at paper-scale shot counts use
    /// [`BatchEngine::trace_records_range`] to record in bounded chunks (as
    /// `record_into_corpus` does when streaming to disk).
    #[must_use]
    pub fn trace_records(&self) -> Vec<qec_trace::ShotTrace> {
        self.trace_records_range(0, self.spec.shots as u64)
    }

    /// Records the shots `start..end` (bounded by the spec's shot count), in
    /// shot order — the chunked building block behind flat-memory corpus
    /// recording. Chunking cannot change the bytes: shot `i` is a pure
    /// function of `seed + i`, whatever chunk it lands in.
    #[must_use]
    pub fn trace_records_range(&self, start: u64, end: u64) -> Vec<qec_trace::ShotTrace> {
        let end = end.min(self.spec.shots as u64);
        (start..end)
            .into_par_iter()
            .map_init(
                || self.context(),
                |ctx, shot| {
                    let mut recorder = qec_trace::ShotRecorder::new();
                    let _ = self.simulate_observed(ctx, shot, &mut recorder);
                    recorder.into_trace(shot)
                },
            )
            .collect()
    }

    /// Runs all shots in parallel and returns the raw run records in shot order.
    ///
    /// Every record is kept alive until the call returns; at large shot counts
    /// prefer [`BatchEngine::map_records`], which streams per-shot extraction.
    #[must_use]
    pub fn run_records(&self) -> Vec<RunRecord> {
        (0..self.spec.shots as u64)
            .into_par_iter()
            .map_init(|| self.context(), |ctx, shot| self.simulate_into(ctx, shot))
            .collect()
    }

    /// Simulates a single shot with a throw-away context. Prefer
    /// [`BatchEngine::map_records`] for many shots; this exists for spot checks and
    /// the equivalence tests against the legacy path.
    #[must_use]
    pub fn shot_record(&self, shot: u64) -> RunRecord {
        let mut ctx = self.context();
        self.simulate_into(&mut ctx, shot)
    }
}

/// Runs the same spec for several policies, preserving input order, with **one**
/// policy factory and **one** decoder shared by every engine in the set (the
/// engine-backed replacement driving `compare_policies`).
#[must_use]
pub fn run_policy_set(
    code: &Code,
    base: &ExperimentSpec,
    policies: &[PolicyKind],
) -> Vec<PolicyExperimentResult> {
    let factory = Arc::new(PolicyFactory::new(code, &base.gladiator));
    let decoder =
        base.decode.then(|| -> Arc<dyn DecoderBackend> { build_decoder(code, base.rounds) });
    policies
        .iter()
        .map(|&kind| {
            let spec = ExperimentSpec { policy: kind, ..base.clone() };
            BatchEngine::with_shared(&spec, Arc::clone(&factory), decoder.clone()).run()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn engine_matches_legacy_single_shot_path() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::GladiatorM).with_shots(4).with_rounds(8);
        let engine = BatchEngine::new(&code, &spec);
        for shot in 0..4u64 {
            assert_eq!(
                engine.shot_record(shot),
                crate::harness::simulate_shot(&code, &spec, shot),
                "shot {shot}"
            );
        }
    }

    #[test]
    fn context_reuse_across_shots_is_bit_identical_to_fresh_contexts() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::EraserM).with_shots(6).with_rounds(10);
        let engine = BatchEngine::new(&code, &spec);
        // One context serving all shots sequentially ...
        let mut ctx = engine.context();
        let reused: Vec<RunRecord> =
            (0..6u64).map(|shot| engine.simulate_into(&mut ctx, shot)).collect();
        // ... must equal a fresh context per shot.
        let fresh: Vec<RunRecord> = (0..6u64).map(|shot| engine.shot_record(shot)).collect();
        assert_eq!(reused, fresh);
    }

    #[test]
    fn run_records_are_ordered_by_shot() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::NoLrc).with_shots(8).with_rounds(5);
        let engine = BatchEngine::new(&code, &spec);
        let parallel = engine.run_records();
        let sequential: Vec<RunRecord> = (0..8u64).map(|s| engine.shot_record(s)).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn score_range_chunks_concatenate_to_the_full_run() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::EraserM).with_shots(9).with_rounds(6);
        let engine = BatchEngine::new(&code, &spec);
        let whole = engine.score_range(0, 9);
        assert_eq!(whole.len(), 9);
        let mut chunked = engine.score_range(0, 4);
        chunked.extend(engine.score_range(4, 7));
        chunked.extend(engine.score_range(7, 99)); // end clamps to spec.shots
        assert_eq!(chunked, whole);
    }

    #[test]
    fn map_records_streams_the_same_data_as_run_records() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::EraserM).with_shots(5).with_rounds(6);
        let engine = BatchEngine::new(&code, &spec);
        let mapped: Vec<(u64, usize)> =
            engine.map_records(|shot, run| (shot, run.total_data_lrcs()));
        let full: Vec<usize> =
            engine.run_records().iter().map(RunRecord::total_data_lrcs).collect();
        assert_eq!(mapped.iter().map(|&(_, l)| l).collect::<Vec<_>>(), full);
        assert_eq!(mapped.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn engine_reuses_one_model_across_worker_policies() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::GladiatorDM).with_shots(12).with_rounds(4);
        let engine = BatchEngine::new(&code, &spec);
        let model = Arc::clone(engine.policy_factory().model());
        let baseline = Arc::strong_count(&model);
        let _ = engine.run();
        // After the run every worker context is dropped again: no model copies leak,
        // and no worker built its own (the factory's OnceLock can only fill once).
        assert_eq!(Arc::strong_count(&model), baseline);
        assert!(Arc::ptr_eq(&model, engine.policy_factory().model()));
    }

    #[test]
    fn decoding_engine_produces_logical_error_rate() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::AlwaysLrc)
            .with_shots(6)
            .with_rounds(6)
            .with_decode(true);
        let engine = BatchEngine::new(&code, &spec);
        assert!(engine.decoder().is_some());
        let result = engine.run();
        let ler = result.metrics.logical_error_rate.expect("decoded");
        assert!((0.0..=1.0).contains(&ler));
    }

    #[test]
    fn run_policy_set_preserves_order() {
        let code = Code::rotated_surface(3);
        let base = ExperimentSpec::quick(PolicyKind::NoLrc).with_shots(2).with_rounds(4);
        let results = run_policy_set(&code, &base, &[PolicyKind::Ideal, PolicyKind::MlrOnly]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].policy, "ideal");
        assert_eq!(results[1].policy, "mlr-only");
    }

    #[test]
    fn policy_set_shares_one_factory_and_matches_independent_engines() {
        let code = Code::rotated_surface(3);
        let base = ExperimentSpec::quick(PolicyKind::Gladiator).with_shots(3).with_rounds(6);
        let kinds = [PolicyKind::Gladiator, PolicyKind::GladiatorDM, PolicyKind::EraserM];
        let shared = run_policy_set(&code, &base, &kinds);
        // The shared-artifact path must reproduce per-policy engines bit for bit.
        for (result, &kind) in shared.iter().zip(&kinds) {
            let spec = ExperimentSpec { policy: kind, ..base.clone() };
            assert_eq!(result, &BatchEngine::new(&code, &spec).run(), "{kind:?}");
        }
    }
}
