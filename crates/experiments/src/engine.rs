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
//! * the decoder backend ([`build_backend`]) is built once when decoding is
//!   requested,
//! * each rayon worker thread gets one long-lived [`Simulator`] + policy pair
//!   (a `ShotContext`), re-used across all shots the thread executes.
//!
//! One private shot loop simulates every shot; each public entry point only
//! says what to keep of a shot's [`RunRecord`]: its metrics
//! ([`BatchEngine::run`], [`BatchEngine::score_range`]), a caller's extraction
//! ([`BatchEngine::map_records`]), or its stored projection, a [`ShotTrace`]
//! ([`BatchEngine::trace_records_range`]). Several engines can share one factory
//! and one decoder ([`BatchEngine::with_shared`]), which is how
//! [`crate::harness::compare_policies`] lets GLADIATOR+M and GLADIATOR-D+M share a
//! single offline model build.
//!
//! # Seeding contract
//!
//! Shot `i` is simulated with RNG seed `spec.seed + i` (wrapping), exactly like
//! the legacy path: the shot loop calls [`Simulator::reseed_for_shot`]
//! (bit-identical to a fresh construction) and [`LeakagePolicy::reset`] before
//! every shot, so results are **independent of thread count and scheduling** and
//! bit-for-bit equal to `simulate_shot` for every shot index. The determinism
//! tests in `crates/experiments/tests/batch_engine.rs` enforce this equivalence
//! for every [`PolicyKind`](leakage_speculation::PolicyKind).

use std::sync::Arc;

use rayon::prelude::*;

use leakage_speculation::PolicyFactory;
use leaky_sim::{LeakagePolicy, RunRecord, Simulator};
use qec_codes::Code;
use qec_decoder::{logical_failure, DecoderBackend, DecoderKind, MemoryBasis};
use qec_trace::ShotTrace;

use crate::harness::{ExperimentSpec, PolicyExperimentResult};
use crate::metrics::{AggregateMetrics, RunMetrics};

/// Reusable Monte-Carlo executor for one `(code, spec)` pair.
///
/// Construction cost is paid once; [`BatchEngine::run`] and the other shot
/// entry points can then be called repeatedly (results are deterministic
/// functions of the spec). See the module docs for the seeding contract.
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
    ///
    /// # Panics
    /// Panics when `spec.decode` asks union-find to decode a code it cannot
    /// match ([`build_backend`] reports that as an error instead).
    #[must_use]
    pub fn new(code: &Code, spec: &ExperimentSpec) -> Self {
        let decoder = spec.decode.then(|| {
            build_backend(None, code, spec.rounds).expect("union-find serves the engine's code")
        });
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

    /// The one shot loop: shots `start..end` (clamped to the spec's shot
    /// count) in parallel, one long-lived [`ShotContext`] per worker. Each
    /// shot is prepared by the ritual of the seeding contract —
    /// [`Simulator::reseed_for_shot`] (`seed + shot`, optional leakage
    /// sampling, the entry point closed-loop replay repairs divergences with)
    /// plus [`LeakagePolicy::reset`] — then handed to `per_shot`. Results come
    /// back in shot order, so nothing downstream depends on thread count.
    fn map_shots<R, F>(&self, start: u64, end: u64, per_shot: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64, &mut Simulator, &mut dyn LeakagePolicy) -> R + Sync,
    {
        let end = end.min(self.spec.shots as u64);
        (start..end)
            .into_par_iter()
            .map_init(
                || ShotContext {
                    sim: Simulator::new(self.code(), self.spec.noise, self.spec.seed),
                    policy: self.factory.build(self.spec.policy),
                },
                |ctx, shot| {
                    ctx.sim.reseed_for_shot(self.spec.seed, shot, self.spec.leakage_sampling);
                    ctx.policy.reset();
                    per_shot(shot, &mut ctx.sim, ctx.policy.as_mut())
                },
            )
            .collect()
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
    /// adaptive shot allocation. Chunking cannot change a single bit: shot `i`
    /// is a pure function of `seed + i`, whatever range it lands in, so
    /// concatenating the results of consecutive ranges equals one big range
    /// and [`BatchEngine::run`] is itself `score_range(0, shots)`.
    #[must_use]
    pub fn score_range(&self, start: u64, end: u64) -> Vec<RunMetrics> {
        self.map_shots(start, end, |_, sim, policy| {
            let run = sim.run_with_policy(policy, self.spec.rounds);
            let mut metrics = RunMetrics::score(&run, self.spec.noise.lrc_time_ns);
            if let Some(decoder) = &self.decoder {
                let correction = decoder.decode_run(&run);
                metrics.logical_error =
                    Some(logical_failure(self.code(), &run, &correction, MemoryBasis::Z));
            }
            metrics
        })
    }

    /// Runs all shots in parallel, handing each [`RunRecord`] to `extract` on
    /// the worker thread and returning the per-shot results in shot order. A
    /// record lives only until its extraction returns, so peak memory is
    /// `O(shots · |R|)` rather than `O(shots · rounds · qubits)`.
    #[must_use]
    pub fn map_records<R, F>(&self, extract: F) -> Vec<R>
    where
        R: Send,
        F: Fn(u64, RunRecord) -> R + Sync,
    {
        self.map_shots(0, self.spec.shots as u64, |shot, sim, policy| {
            extract(shot, sim.run_with_policy(policy, self.spec.rounds))
        })
    }

    /// Records the shots `start..end` (bounded by the spec's shot count) as
    /// [`ShotTrace`]s, in shot order — the stored projection of each run
    /// ([`ShotTrace::record`]). The shot-ordered return is what makes
    /// serialized trace bytes independent of worker-thread count, and
    /// chunking cannot change them: shot `i` is a pure function of
    /// `seed + i`, whatever chunk it lands in.
    #[must_use]
    pub fn trace_records_range(&self, start: u64, end: u64) -> Vec<ShotTrace> {
        self.map_shots(start, end, |shot, sim, policy| {
            ShotTrace::record(shot, sim, policy, self.spec.rounds)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::simulate_shot;
    use leakage_speculation::PolicyKind;

    /// Workers reuse one context across their shots; the legacy path builds a
    /// fresh simulator and policy per shot. Both must agree bit for bit, and
    /// `map_records` hands back every shot with its index, in shot order.
    #[test]
    fn engine_matches_legacy_single_shot_path() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::GladiatorM).with_shots(8).with_rounds(8);
        let engine = BatchEngine::new(&code, &spec);
        let legacy: Vec<(u64, RunRecord)> =
            (0..8u64).map(|shot| (shot, simulate_shot(&code, &spec, shot))).collect();
        assert_eq!(engine.map_records(|shot, run| (shot, run)), legacy);
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
}
