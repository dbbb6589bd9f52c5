//! The closed-loop leakage-aware simulator.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qec_codes::{CheckBasis, Code, DataQubitId};

use crate::frame::QubitFrames;
use crate::noise::NoiseParams;
use crate::policy::{GroundTruth, LeakagePolicy, LrcRequest, PolicyContext};
use crate::record::{RoundRecord, RunRecord};
use crate::rounds::RoundTables;

/// Leakage-aware Pauli-frame simulator for one logical qubit of a CSS code.
///
/// A `Simulator` owns the code, the noise model, the per-qubit frames/leak flags and a
/// seeded RNG, so repeated runs with the same seed are bit-for-bit reproducible.
#[derive(Debug, Clone)]
pub struct Simulator {
    code: Code,
    checks: std::sync::Arc<Vec<qec_codes::Check>>,
    noise: NoiseParams,
    pub(crate) frames: QubitFrames,
    pub(crate) rng: ChaCha8Rng,
    prev_measurements: Vec<bool>,
    round_index: usize,
    cnot_layers: usize,
    /// Survival tables of the round executor's gap streams (immutable, shared by
    /// clones).
    pub(crate) round_tables: Arc<RoundTables>,
}

/// A snapshot of every piece of [`Simulator`] state that varies within a run:
/// frames, RNG stream position, previous-round measurements and the round
/// counter. The immutable run configuration (code, noise, round tables) is *not*
/// captured — a checkpoint may only be restored into the simulator family it
/// was taken from.
///
/// Compared to cloning the whole `Simulator`, a checkpoint is cheap to take
/// and cheap to restore: no code or table duplication, and
/// [`Simulator::restore`] copies into the existing allocations instead of
/// reallocating. This is what makes shared-checkpoint closed-loop replay
/// (one forced prefix, N resumed suffixes) affordable per shot.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatorCheckpoint {
    frames: QubitFrames,
    rng: ChaCha8Rng,
    prev_measurements: Vec<bool>,
    round_index: usize,
}

impl SimulatorCheckpoint {
    /// Round index the snapshot was taken at (= rounds already executed).
    #[must_use]
    pub fn round_index(&self) -> usize {
        self.round_index
    }
}

impl Simulator {
    /// Creates a simulator for `code` under `noise`, seeded deterministically.
    #[must_use]
    pub fn new(code: &Code, noise: NoiseParams, seed: u64) -> Self {
        let cnot_layers = code.checks().iter().map(qec_codes::Check::weight).max().unwrap_or(0);
        Simulator {
            code: code.clone(),
            checks: std::sync::Arc::new(code.checks().to_vec()),
            noise,
            frames: QubitFrames::new(code.num_data(), code.num_checks()),
            rng: ChaCha8Rng::seed_from_u64(seed),
            prev_measurements: vec![false; code.num_checks()],
            round_index: 0,
            cnot_layers,
            round_tables: Arc::new(RoundTables::new(code, &noise)),
        }
    }

    /// The code being simulated.
    #[must_use]
    pub fn code(&self) -> &Code {
        &self.code
    }

    /// The noise model in force.
    #[must_use]
    pub fn noise(&self) -> &NoiseParams {
        &self.noise
    }

    /// Current frames and leak flags (read-only).
    #[must_use]
    pub fn frames(&self) -> &QubitFrames {
        &self.frames
    }

    /// Number of rounds executed so far.
    #[must_use]
    pub fn rounds_executed(&self) -> usize {
        self.round_index
    }

    /// Number of CNOT layers per round (the maximum check weight).
    #[must_use]
    pub fn cnot_layers(&self) -> usize {
        self.cnot_layers
    }

    /// Forces a data qubit into the leaked state. Used for leakage-sampling
    /// (Section 6, "Scaling Simulations using Leakage Sampling") and failure-injection
    /// tests.
    pub fn inject_data_leakage(&mut self, q: DataQubitId) {
        self.frames.set_data_leaked(q, true);
    }

    /// Forces an ancilla qubit into the leaked state.
    pub fn inject_ancilla_leakage(&mut self, check: usize) {
        self.frames.set_ancilla_leaked(check, true);
    }

    /// Seeds `count` distinct random data qubits as leaked (leakage sampling).
    pub fn seed_random_data_leakage(&mut self, count: usize) {
        use rand::seq::SliceRandom;
        let mut qubits: Vec<DataQubitId> = (0..self.code.num_data()).collect();
        qubits.shuffle(&mut self.rng);
        for &q in qubits.iter().take(count) {
            self.frames.set_data_leaked(q, true);
        }
    }

    /// Resets frames, leak flags, measurement history and the round counter, keeping
    /// the RNG state (so consecutive runs explore different randomness).
    pub fn reset_state(&mut self) {
        self.frames.clear();
        for m in &mut self.prev_measurements {
            *m = false;
        }
        self.round_index = 0;
    }

    /// Re-seeds the RNG and resets all per-run state, leaving the simulator
    /// bit-for-bit identical to a freshly constructed `Simulator::new(code, noise,
    /// seed)` — but without re-deriving the code structures (check list, round tables),
    /// which is what makes per-shot reuse in the batch engine allocation-light.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self.reset_state();
    }

    /// THE per-shot seeding ritual of the Monte-Carlo contract: shot `shot` of a
    /// run with base seed `base_seed` is simulated from RNG seed
    /// `base_seed + shot` (wrapping), optionally seeding one random leaked data
    /// qubit (leakage sampling). Every execution path that claims bit-for-bit
    /// shot reproducibility — the batch engine, trace recording, and closed-loop
    /// replay's divergence repair — must prepare shots through this one method,
    /// so the contract can never drift between recording and replay.
    pub fn reseed_for_shot(&mut self, base_seed: u64, shot: u64, leakage_sampling: bool) {
        self.reseed(base_seed.wrapping_add(shot));
        if leakage_sampling {
            self.seed_random_data_leakage(1);
        }
    }

    /// Snapshots all per-run mutable state (frames, RNG, previous measurements,
    /// round counter) into a [`SimulatorCheckpoint`]. Restoring the checkpoint
    /// with [`Simulator::restore`] puts the simulator bit-for-bit back where it
    /// was — same frames, same RNG stream position — so any continuation
    /// (e.g. [`Simulator::resume_with_policy`]) behaves exactly as if the
    /// intervening rounds had never been executed.
    #[must_use]
    pub fn checkpoint(&self) -> SimulatorCheckpoint {
        SimulatorCheckpoint {
            frames: self.frames.clone(),
            rng: self.rng.clone(),
            prev_measurements: self.prev_measurements.clone(),
            round_index: self.round_index,
        }
    }

    /// Restores per-run state from a checkpoint taken on a simulator of the
    /// same code, reusing this simulator's existing allocations.
    ///
    /// # Panics
    /// Panics when the checkpoint's frame shapes disagree with this
    /// simulator's code (it was taken from a different simulator family).
    pub fn restore(&mut self, checkpoint: &SimulatorCheckpoint) {
        assert_eq!(
            (checkpoint.frames.num_data(), checkpoint.frames.num_ancilla()),
            (self.code.num_data(), self.code.num_checks()),
            "checkpoint must come from a simulator of the same code"
        );
        self.frames.clone_from(&checkpoint.frames);
        self.rng.clone_from(&checkpoint.rng);
        self.prev_measurements.clone_from(&checkpoint.prev_measurements);
        self.round_index = checkpoint.round_index;
    }

    /// Executes a single QEC round, applying the requested LRCs first.
    pub fn run_round(&mut self, request: &LrcRequest) -> RoundRecord {
        let record = self.execute_round(request);
        self.round_index += 1;
        record
    }

    /// Runs `rounds` QEC rounds closed-loop with `policy`, then finalizes the run
    /// (returning leaked qubits to the computational subspace and appending a round of
    /// perfect measurements for decoding).
    ///
    /// # Panics
    /// Panics when the simulator has already executed rounds this run (a shot
    /// starts from a fresh construction, [`Simulator::reseed`] /
    /// [`Simulator::reseed_for_shot`], or [`Simulator::reset_state`]); a run
    /// started mid-stream would mislabel every round index. Use
    /// [`Simulator::resume_with_policy`] to continue a partially executed shot.
    pub fn run_with_policy<P: LeakagePolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        rounds: usize,
    ) -> RunRecord {
        self.resume_with_policy(policy, Vec::with_capacity(rounds), rounds)
    }

    /// Resumes a partially executed shot closed-loop with `policy`: `history`
    /// must hold exactly the rounds this simulator has already executed (the
    /// checkpoint), and the remaining `history.len()..total_rounds` rounds are
    /// planned and executed live, after which the run is finalized as usual.
    ///
    /// With an empty history this *is* [`Simulator::run_with_policy`]. With a
    /// non-empty one it is the divergence-repair entry point of closed-loop
    /// trace replay: re-execute the recorded prefix with [`Simulator::run_round`]
    /// (forced schedule, no policy), then hand the simulator to this method and
    /// the resumed shot is bit-for-bit a from-scratch run of `policy` — same
    /// frames, same RNG stream position, same history fed to every plan.
    ///
    /// # Panics
    /// Panics when `history.len()` disagrees with [`Simulator::rounds_executed`]
    /// (the checkpoint would be inconsistent with the simulator state).
    pub fn resume_with_policy<P: LeakagePolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        mut history: Vec<RoundRecord>,
        total_rounds: usize,
    ) -> RunRecord {
        assert_eq!(
            self.round_index,
            history.len(),
            "resume checkpoint must describe exactly the rounds already executed"
        );
        for round in history.len()..total_rounds {
            let request = policy.plan_lrcs(&PolicyContext {
                round,
                history: &history,
                ground_truth: GroundTruth {
                    data_leaked: self.frames.data_leaks(),
                    ancilla_leaked: self.frames.ancilla_leaks(),
                },
            });
            history.push(self.run_round(&request));
        }
        self.finalize_run(history)
    }

    /// Finalizes a run: leaked data qubits are depolarized back into the computational
    /// subspace (their state after a terminal reset is random) and a final round of
    /// noiseless measurements is recorded for the decoder.
    fn finalize_run(&mut self, rounds: Vec<RoundRecord>) -> RunRecord {
        use rand::Rng;
        for q in 0..self.code.num_data() {
            if self.frames.data_leaked(q) {
                if self.rng.gen_bool(0.5) {
                    self.frames.apply_data_pauli(q, crate::pauli::Pauli::X);
                }
                if self.rng.gen_bool(0.5) {
                    self.frames.apply_data_pauli(q, crate::pauli::Pauli::Z);
                }
                self.frames.set_data_leaked(q, false);
            }
        }
        let final_perfect_measurements = self.measure_ideal();
        RunRecord {
            rounds,
            final_data_x: self.frames.data_x_frames(),
            final_data_z: self.frames.data_z_frames(),
            final_perfect_measurements,
        }
    }

    /// Noiseless measurement of every check against the current data frames.
    #[must_use]
    pub fn measure_ideal(&self) -> Vec<bool> {
        self.code
            .checks()
            .iter()
            .map(|check| match check.basis {
                CheckBasis::Z => self.frames.x_parity(&check.support),
                CheckBasis::X => self.frames.z_parity(&check.support),
            })
            .collect()
    }

    /// `true` when the residual error (after any external correction has been XORed
    /// into `correction_x` / `correction_z`) anticommutes with the first logical
    /// operator of the corresponding type, i.e. a logical error occurred.
    ///
    /// `correction_x` marks data qubits whose X frame the decoder flips;
    /// `correction_z` the Z frames. Either may be empty to skip that basis.
    #[must_use]
    pub fn logical_error(
        &self,
        correction_x: &[DataQubitId],
        correction_z: &[DataQubitId],
    ) -> bool {
        let mut x_frames = self.frames.data_x_frames();
        for &q in correction_x {
            x_frames[q] = !x_frames[q];
        }
        let mut z_frames = self.frames.data_z_frames();
        for &q in correction_z {
            z_frames[q] = !z_frames[q];
        }
        // Residual X errors flip a Z-basis logical readout (logical Z support);
        // residual Z errors flip an X-basis readout (logical X support).
        let z_logical_flip = self
            .code
            .logical_z()
            .first()
            .map(|support| support.iter().filter(|&&q| x_frames[q]).count() % 2 == 1)
            .unwrap_or(false);
        let x_logical_flip = self
            .code
            .logical_x()
            .first()
            .map(|support| support.iter().filter(|&&q| z_frames[q]).count() % 2 == 1)
            .unwrap_or(false);
        z_logical_flip || x_logical_flip
    }

    pub(crate) fn previous_measurements(&mut self) -> &mut Vec<bool> {
        &mut self.prev_measurements
    }

    /// Cheaply cloneable handle to the code's checks, used by the round executor to
    /// avoid borrowing `self` while mutating frames.
    pub(crate) fn shared_checks(&self) -> std::sync::Arc<Vec<qec_codes::Check>> {
        std::sync::Arc::clone(&self.checks)
    }

    pub(crate) fn current_round_index(&self) -> usize {
        self.round_index
    }

    pub(crate) fn noise_params(&self) -> NoiseParams {
        self.noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NeverLrc;

    #[test]
    fn same_seed_is_deterministic() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        let run_a = Simulator::new(&code, noise, 123).run_with_policy(&mut NeverLrc, 20);
        let run_b = Simulator::new(&code, noise, 123).run_with_policy(&mut NeverLrc, 20);
        assert_eq!(run_a, run_b);
    }

    #[test]
    fn reseed_is_bit_identical_to_a_fresh_simulator() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        // Drive a simulator through a run, then reseed it and compare against a
        // freshly constructed one: histories must match bit for bit.
        let mut reused = Simulator::new(&code, noise, 7);
        let _ = reused.run_with_policy(&mut NeverLrc, 15);
        reused.reseed(31);
        reused.seed_random_data_leakage(1);
        let run_reused = reused.run_with_policy(&mut NeverLrc, 25);

        let mut fresh = Simulator::new(&code, noise, 31);
        fresh.seed_random_data_leakage(1);
        let run_fresh = fresh.run_with_policy(&mut NeverLrc, 25);
        assert_eq!(run_reused, run_fresh);
    }

    #[test]
    fn reset_state_clears_everything_but_keeps_the_rng_stream() {
        let code = Code::rotated_surface(3);
        let mut sim = Simulator::new(&code, NoiseParams::default(), 5);
        sim.inject_data_leakage(2);
        let _ = sim.run_with_policy(&mut NeverLrc, 10);
        sim.reset_state();
        assert_eq!(sim.rounds_executed(), 0);
        assert_eq!(sim.frames().leaked_data_count(), 0);
        assert!(sim.frames().data_x_frames().iter().all(|&b| !b));
        assert!(sim.measure_ideal().iter().all(|&m| !m));
    }

    #[test]
    fn reseed_for_shot_matches_the_manual_ritual() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        let mut ritual = Simulator::new(&code, noise, 0);
        ritual.reseed_for_shot(40, 2, true);
        let run_ritual = ritual.run_with_policy(&mut NeverLrc, 12);

        let mut manual = Simulator::new(&code, noise, 42);
        manual.seed_random_data_leakage(1);
        let run_manual = manual.run_with_policy(&mut NeverLrc, 12);
        assert_eq!(run_ritual, run_manual);

        // Without leakage sampling the ritual is a plain reseed.
        let mut plain = Simulator::new(&code, noise, 0);
        plain.reseed_for_shot(7, 0, false);
        assert_eq!(
            plain.run_with_policy(&mut NeverLrc, 8),
            Simulator::new(&code, noise, 7).run_with_policy(&mut NeverLrc, 8)
        );
    }

    #[test]
    fn resuming_from_a_forced_prefix_is_bit_identical_to_a_full_run() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        let rounds = 20;
        // Reference: one uninterrupted closed-loop run.
        let mut reference = Simulator::new(&code, noise, 77);
        reference.seed_random_data_leakage(1);
        let full = reference.run_with_policy(&mut NeverLrc, rounds);

        for split in [0usize, 1, 7, rounds] {
            // Re-execute the recorded prefix with forced requests, then resume
            // closed-loop: the result must be the full run, bit for bit.
            let mut sim = Simulator::new(&code, noise, 0);
            sim.reseed_for_shot(77, 0, true);
            let mut history = Vec::new();
            for record in &full.rounds[..split] {
                let request = LrcRequest {
                    data: record.data_lrcs.clone(),
                    ancilla: record.ancilla_lrcs.clone(),
                };
                let executed = sim.run_round(&request);
                assert_eq!(&executed, record, "forced prefix must reproduce round {split}");
                history.push(executed);
            }
            let resumed = sim.resume_with_policy(&mut NeverLrc, history, rounds);
            assert_eq!(resumed, full, "split at round {split}");
        }
    }

    #[test]
    fn checkpoint_restore_is_bit_identical_to_clone_and_to_a_full_run() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        let rounds = 20;
        // Reference: one uninterrupted closed-loop run.
        let mut reference = Simulator::new(&code, noise, 99);
        reference.seed_random_data_leakage(1);
        let full = reference.run_with_policy(&mut NeverLrc, rounds);

        for split in [0usize, 1, 7, rounds] {
            let mut sim = Simulator::new(&code, noise, 0);
            sim.reseed_for_shot(99, 0, true);
            let mut history = Vec::new();
            for record in &full.rounds[..split] {
                let request = LrcRequest {
                    data: record.data_lrcs.clone(),
                    ancilla: record.ancilla_lrcs.clone(),
                };
                history.push(sim.run_round(&request));
            }
            let checkpoint = sim.checkpoint();
            assert_eq!(checkpoint.round_index(), split);
            let cloned = sim.clone();

            // Resuming straight through is the baseline.
            let direct = sim.resume_with_policy(&mut NeverLrc, history.clone(), rounds);
            assert_eq!(direct, full, "direct resume, split {split}");

            // A cloned simulator resumes identically.
            let mut via_clone = cloned;
            let from_clone = via_clone.resume_with_policy(&mut NeverLrc, history.clone(), rounds);
            assert_eq!(from_clone, full, "clone resume, split {split}");

            // Restoring the checkpoint into the *used* simulator rewinds it
            // completely: the re-resumed run must match bit for bit, and a
            // second restore must work just as well (checkpoints are reusable).
            for attempt in 0..2 {
                sim.restore(&checkpoint);
                assert_eq!(sim.rounds_executed(), split);
                assert_eq!(sim.checkpoint(), checkpoint, "restore must round-trip");
                let replayed = sim.resume_with_policy(&mut NeverLrc, history.clone(), rounds);
                assert_eq!(replayed, full, "restored resume {attempt}, split {split}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "same code")]
    fn restore_rejects_a_checkpoint_from_a_different_code() {
        let small = Simulator::new(&Code::rotated_surface(3), NoiseParams::default(), 1);
        let checkpoint = small.checkpoint();
        let mut large = Simulator::new(&Code::rotated_surface(5), NoiseParams::default(), 1);
        large.restore(&checkpoint);
    }

    #[test]
    #[should_panic(expected = "resume checkpoint")]
    fn resume_rejects_a_history_that_disagrees_with_the_simulator() {
        let code = Code::rotated_surface(3);
        let mut sim = Simulator::new(&code, NoiseParams::default(), 1);
        let run = sim.run_with_policy(&mut NeverLrc, 3);
        // Three rounds executed but the simulator was never reset: an empty
        // history is a lie about the checkpoint.
        let mut fresh = Simulator::new(&code, NoiseParams::default(), 1);
        let _ = fresh.run_round(&LrcRequest::none());
        let _ = fresh.resume_with_policy(&mut NeverLrc, run.rounds, 5);
    }

    #[test]
    fn different_seeds_differ() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        let run_a = Simulator::new(&code, noise, 1).run_with_policy(&mut NeverLrc, 50);
        let run_b = Simulator::new(&code, noise, 2).run_with_policy(&mut NeverLrc, 50);
        assert_ne!(run_a, run_b, "different seeds should yield different histories");
    }

    #[test]
    fn noiseless_run_has_no_detections_or_leakage() {
        let code = Code::rotated_surface(5);
        let noise = NoiseParams::builder()
            .physical_error_rate(0.0)
            .leakage_ratio(0.0)
            .mlr_false_flag(0.0)
            .build();
        let run = Simulator::new(&code, noise, 7).run_with_policy(&mut NeverLrc, 30);
        for round in &run.rounds {
            assert!(round.detectors.iter().all(|&d| !d), "unexpected detection event");
            assert_eq!(round.leaked_data_count(), 0);
            assert_eq!(round.lrc_count(), 0);
        }
        assert!(run.final_data_x.iter().all(|&b| !b));
        assert!(run.final_perfect_measurements.iter().all(|&m| !m));
    }

    #[test]
    fn injected_leakage_persists_without_lrcs() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder()
            .physical_error_rate(0.0)
            .leakage_ratio(0.0)
            .mobility(0.0)
            .mlr_false_flag(0.0)
            .build();
        let mut sim = Simulator::new(&code, noise, 9);
        sim.inject_data_leakage(4);
        let run = sim.run_with_policy(&mut NeverLrc, 10);
        for round in &run.rounds {
            assert!(round.data_leak_after[4], "leak must persist with no LRC and no decay");
        }
    }

    #[test]
    fn leaked_qubit_randomizes_adjacent_syndromes() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder()
            .physical_error_rate(0.0)
            .leakage_ratio(0.0)
            .mobility(0.0)
            .mlr_false_flag(0.0)
            .build();
        let mut sim = Simulator::new(&code, noise, 11);
        // centre qubit of d=3 touches four checks
        sim.inject_data_leakage(4);
        let run = sim.run_with_policy(&mut NeverLrc, 200);
        let adjacency = code.data_adjacency();
        let adjacent: Vec<usize> = adjacency.pattern_checks(4);
        let mut flips = 0usize;
        let mut total = 0usize;
        for round in &run.rounds {
            for &c in &adjacent {
                total += 1;
                if round.detectors[c] {
                    flips += 1;
                }
            }
        }
        let rate = flips as f64 / total as f64;
        assert!(
            (rate - 0.5).abs() < 0.08,
            "leaked data qubit should flip adjacent detectors ~50% of the time, got {rate}"
        );
    }

    #[test]
    fn run_round_applies_requested_lrcs_and_clears_leakage() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder().physical_error_rate(0.0).leakage_ratio(0.0).build();
        let mut sim = Simulator::new(&code, noise, 3);
        sim.inject_data_leakage(0);
        assert!(sim.frames().data_leaked(0));
        let record = sim.run_round(&LrcRequest { data: vec![0], ancilla: vec![] });
        assert_eq!(record.data_lrcs, vec![0]);
        assert!(!sim.frames().data_leaked(0), "LRC must clear the leak flag");
        assert!(record.data_leak_before[0]);
        assert!(!record.data_leak_after[0]);
    }

    #[test]
    fn logical_error_detects_a_logical_x_string() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder().physical_error_rate(0.0).leakage_ratio(0.0).build();
        let mut sim = Simulator::new(&code, noise, 5);
        // Apply a full logical Z-support X string manually: flips the Z-basis readout.
        let logical = code.logical_z()[0].clone();
        for &q in &logical {
            sim.frames.apply_data_pauli(q, crate::pauli::Pauli::X);
        }
        assert!(sim.logical_error(&[], &[]));
        // Correcting exactly that string removes the logical error.
        assert!(!sim.logical_error(&logical, &[]));
    }

    #[test]
    fn measure_ideal_reports_syndrome_of_injected_error() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder().physical_error_rate(0.0).leakage_ratio(0.0).build();
        let mut sim = Simulator::new(&code, noise, 5);
        sim.frames.apply_data_pauli(4, crate::pauli::Pauli::X);
        let syndrome = sim.measure_ideal();
        let triggered: Vec<usize> = (0..code.num_checks()).filter(|&c| syndrome[c]).collect();
        // The centre qubit of d=3 touches exactly two Z checks.
        assert_eq!(triggered.len(), 2);
        for c in triggered {
            assert_eq!(code.check(c).basis, CheckBasis::Z);
            assert!(code.check(c).support.contains(&4));
        }
    }
}
