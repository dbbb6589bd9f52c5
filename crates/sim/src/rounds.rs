//! Execution of a single noisy QEC round (the circuit-level noise model of Section 6).
//!
//! # Sampling noise per event
//!
//! Every fixed-probability noise channel of a round is a sequence of independent
//! Bernoulli(q) trials, and almost all of them fail (≈0.3 of a d=5 round's ≈300
//! trials fire at `p = 10⁻³`). Instead of drawing once per trial, the round
//! executor starts one `GapStream` per distinct probability at the top of each
//! round — `p`, `p_leak` and `mlr_false_flag` — and each stream draws one `u64`
//! per *event*: the number of failing trials before the next success. Channels
//! that share a probability share a stream, which is exact because every call is
//! an independent Bernoulli(q) trial. A gate or readout whose operand is leaked
//! does not ask its stream at all; skipping trials of a memoryless stream is exact
//! thinning. Event-driven randomness (which Pauli, the gate-leak operand coin,
//! leaked-gate mobility, leaked-ancilla readout, LRC gadgets, run finalization)
//! keeps its direct draws.
//!
//! Gaps are drawn by searching a `SurvivalTable` `t[k] = (1-q)^k` built by
//! repeated multiplication, never with `ln`/`log1p`: platform libms do not promise
//! bit-identical logarithms, and the `seed + shot` contract promises identical
//! bytes on every build.

use std::sync::Arc;

use rand::{Rng, RngCore};

use qec_codes::{Check, CheckBasis, CheckId, Code, DataQubitId};

use crate::noise::NoiseParams;
use crate::pauli::{random_two_qubit_error, Pauli};
use crate::policy::LrcRequest;
use crate::record::RoundRecord;
use crate::simulator::Simulator;

/// Survival function `t[k] = (1-q)^k`, `k = 0..=n`, of a Bernoulli(q) trial
/// stream that asks at most `n` trials per round.
#[derive(Debug)]
struct SurvivalTable {
    survival: Vec<f64>,
}

impl SurvivalTable {
    /// Table for probability `q` and at most `trials` trials per round, built by
    /// repeated multiplication (bit-identical under IEEE-754 everywhere).
    fn new(q: f64, trials: usize) -> Self {
        let keep = 1.0 - q;
        let mut survival = Vec::with_capacity(trials + 1);
        let mut s = 1.0;
        for _ in 0..=trials {
            survival.push(s);
            s *= keep;
        }
        SurvivalTable { survival }
    }

    /// Draws the number of failing trials before the next success,
    /// `G = max{k : t[k] > u}`, or [`NO_EVENT`] when `G` reaches the end of the
    /// table (none of the round's remaining trials fires). A `q = 0` table
    /// never fires and draws nothing.
    fn draw_gap<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let last = self.survival[self.survival.len() - 1];
        if last >= 1.0 {
            return NO_EVENT;
        }
        // The same 53-bit unit `gen_bool` compares against.
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        if u < last {
            return NO_EVENT;
        }
        self.survival.partition_point(|&s| s > u) - 1
    }
}

/// Gap value meaning "no further event this round".
const NO_EVENT: usize = usize::MAX;

/// One round's Bernoulli(q) trial stream: one `u64` per event, not per trial.
struct GapStream<'t> {
    table: &'t SurvivalTable,
    /// Trials that fail before the next one fires.
    gap: usize,
}

impl<'t> GapStream<'t> {
    /// Starts a stream at the top of a round (draws the first gap).
    fn start<R: RngCore + ?Sized>(table: &'t SurvivalTable, rng: &mut R) -> Self {
        GapStream { table, gap: table.draw_gap(rng) }
    }

    /// One Bernoulli(q) trial: `true` when it fires.
    #[inline]
    fn fires<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> bool {
        if self.gap > 0 {
            // `NO_EVENT` counts down too, but never reaches zero within a round.
            self.gap -= 1;
            false
        } else {
            self.gap = self.table.draw_gap(rng);
            true
        }
    }
}

/// The survival tables of a simulator's three round streams, sized from the
/// code by the number of trials each stream can be asked per round.
#[derive(Debug)]
pub(crate) struct RoundTables {
    /// `p`: data depolarization, ancilla preparation, CNOT depolarization and
    /// readout flips.
    p: SurvivalTable,
    /// `p_leak`: data, ancilla-preparation and gate-induced leakage.
    leak: SurvivalTable,
    /// `mlr_false_flag` on healthy ancillas (`q = 0` without MLR).
    false_flag: SurvivalTable,
}

impl RoundTables {
    pub(crate) fn new(code: &Code, noise: &NoiseParams) -> Self {
        let (data, checks) = (code.num_data(), code.num_checks());
        let cnots: usize = code.checks().iter().map(Check::weight).sum();
        let false_flag = if noise.mlr_enabled { noise.mlr_false_flag } else { 0.0 };
        RoundTables {
            p: SurvivalTable::new(noise.p, data + 2 * checks + cnots),
            leak: SurvivalTable::new(noise.p_leak(), data + checks + cnots),
            false_flag: SurvivalTable::new(false_flag, checks),
        }
    }
}

/// The gap streams of one round. Like [`AncillaFrames`], this state never
/// outlives `execute_round`, so checkpoints need not capture it.
struct RoundStreams<'t> {
    p: GapStream<'t>,
    leak: GapStream<'t>,
    false_flag: GapStream<'t>,
}

impl<'t> RoundStreams<'t> {
    /// Starts the streams in field order (struct fields evaluate as written).
    fn start<R: RngCore + ?Sized>(tables: &'t RoundTables, rng: &mut R) -> Self {
        RoundStreams {
            p: GapStream::start(&tables.p, rng),
            leak: GapStream::start(&tables.leak, rng),
            false_flag: GapStream::start(&tables.false_flag, rng),
        }
    }
}

/// Within-round Pauli frame of the ancilla (parity) qubits. Ancillas are measured and
/// reset every round, so this state never outlives `execute_round`.
#[derive(Debug, Clone)]
struct AncillaFrames {
    x: Vec<bool>,
    z: Vec<bool>,
}

impl AncillaFrames {
    fn new(n: usize) -> Self {
        AncillaFrames { x: vec![false; n], z: vec![false; n] }
    }

    fn apply(&mut self, c: CheckId, p: Pauli) {
        if p.has_x() {
            self.x[c] = !self.x[c];
        }
        if p.has_z() {
            self.z[c] = !self.z[c];
        }
    }
}

impl Simulator {
    /// Executes one noisy QEC round: LRCs → data noise → ancilla prep → CNOT layers →
    /// readout, returning the observable record plus ground truth snapshots.
    pub(crate) fn execute_round(&mut self, request: &LrcRequest) -> RoundRecord {
        let noise = self.noise_params();
        let num_checks = self.code().num_checks();
        let num_data = self.code().num_data();
        let round = self.current_round_index();

        let data_leak_before = self.frames.data_leak_flags();
        let tables = Arc::clone(&self.round_tables);
        let mut streams = RoundStreams::start(&tables, &mut self.rng);

        // --- 1. Leakage-reduction circuits requested by the policy --------------------
        for &q in &request.data {
            self.apply_data_lrc(q);
        }
        for &c in &request.ancilla {
            self.apply_ancilla_lrc(c);
        }

        // --- 2. Start-of-round data noise ---------------------------------------------
        for q in 0..num_data {
            if streams.p.fires(&mut self.rng) {
                let err = Pauli::random_error(&mut self.rng);
                self.frames.apply_data_pauli(q, err);
            }
            if streams.leak.fires(&mut self.rng) {
                self.frames.set_data_leaked(q, true);
            }
        }

        // --- 3. Ancilla preparation ----------------------------------------------------
        let mut ancilla = AncillaFrames::new(num_checks);
        let checks = self.shared_checks();
        for check in checks.iter() {
            if streams.p.fires(&mut self.rng) {
                // A faulty reset flips the observable the check measures.
                match check.basis {
                    CheckBasis::Z => ancilla.apply(check.id, Pauli::X),
                    CheckBasis::X => ancilla.apply(check.id, Pauli::Z),
                }
            }
            if streams.leak.fires(&mut self.rng) {
                self.frames.set_ancilla_leaked(check.id, true);
            }
        }

        // --- 4. CNOT layers -------------------------------------------------------------
        let layers = self.cnot_layers();
        for t in 0..layers {
            for check in checks.iter() {
                if let Some(&q) = check.support.get(t) {
                    self.apply_syndrome_cnot(check, q, &mut ancilla, &mut streams);
                }
            }
        }

        // --- 5. Readout ------------------------------------------------------------------
        let mut measurements = vec![false; num_checks];
        let mut mlr_leak_flags = vec![false; num_checks];
        for check in checks.iter() {
            let c = check.id;
            if self.frames.ancilla_leaked(c) {
                // Leaked parity qubit: two-level readout yields a random bit.
                measurements[c] = self.rng.gen_bool(0.5);
                if noise.mlr_enabled {
                    let missed = noise.mlr_miss() > 0.0 && self.rng.gen_bool(noise.mlr_miss());
                    mlr_leak_flags[c] = !missed;
                }
            } else {
                let ideal = match check.basis {
                    CheckBasis::Z => ancilla.x[c],
                    CheckBasis::X => ancilla.z[c],
                };
                measurements[c] = ideal ^ streams.p.fires(&mut self.rng);
                if streams.false_flag.fires(&mut self.rng) {
                    mlr_leak_flags[c] = true;
                }
            }
        }

        // Detectors: XOR against the previous round's raw measurements.
        let mut detectors = vec![false; num_checks];
        {
            let prev = self.previous_measurements();
            for c in 0..num_checks {
                detectors[c] = measurements[c] ^ prev[c];
                prev[c] = measurements[c];
            }
        }

        RoundRecord {
            round,
            measurements,
            detectors,
            mlr_leak_flags,
            data_lrcs: request.data.clone(),
            ancilla_lrcs: request.ancilla.clone(),
            data_leak_before,
            data_leak_after: self.frames.data_leak_flags(),
            ancilla_leak_after: self.frames.ancilla_leak_flags(),
            cycle_time_ns: noise.round_ns(layers, request.len()),
        }
    }

    /// One CNOT of the syndrome-extraction circuit between `check`'s ancilla and data
    /// qubit `q`, including all noise channels. A gate with a leaked operand asks
    /// no stream for its depolarizing or leakage trial.
    fn apply_syndrome_cnot(
        &mut self,
        check: &Check,
        q: DataQubitId,
        ancilla: &mut AncillaFrames,
        streams: &mut RoundStreams<'_>,
    ) {
        let noise = self.noise_params();
        let data_leaked = self.frames.data_leaked(q);
        let anc_leaked = self.frames.ancilla_leaked(check.id);

        if data_leaked || anc_leaked {
            // Malfunctioning gate (calibrated on IBM hardware, Section 2.3): the healthy
            // operand either inherits the leakage (probability `mobility`) or suffers a
            // uniformly random Pauli, i.e. a 50% chance of a bit flip.
            if data_leaked && !anc_leaked {
                if noise.mobility > 0.0 && self.rng.gen_bool(noise.mobility) {
                    self.frames.set_ancilla_leaked(check.id, true);
                } else {
                    let p = Pauli::random_uniform(&mut self.rng);
                    ancilla.apply(check.id, p);
                }
            } else if anc_leaked && !data_leaked {
                if noise.mobility > 0.0 && self.rng.gen_bool(noise.mobility) {
                    self.frames.set_data_leaked(q, true);
                } else {
                    let p = Pauli::random_uniform(&mut self.rng);
                    self.frames.apply_data_pauli(q, p);
                }
            }
            // Both leaked: the gate acts trivially within the computational subspace.
            return;
        }

        // Ideal frame propagation.
        match check.basis {
            CheckBasis::Z => {
                // CNOT with data as control, ancilla as target.
                if self.frames.data_has_x(q) {
                    ancilla.x[check.id] = !ancilla.x[check.id];
                }
                if ancilla.z[check.id] {
                    self.frames.apply_data_pauli(q, Pauli::Z);
                }
            }
            CheckBasis::X => {
                // CNOT with ancilla as control, data as target.
                if ancilla.x[check.id] {
                    self.frames.apply_data_pauli(q, Pauli::X);
                }
                if self.frames.data_has_z(q) {
                    ancilla.apply(check.id, Pauli::Z);
                }
            }
        }

        // Two-qubit depolarizing noise.
        if streams.p.fires(&mut self.rng) {
            let (pd, pa) = random_two_qubit_error(&mut self.rng);
            self.frames.apply_data_pauli(q, pd);
            ancilla.apply(check.id, pa);
        }

        // Gate-induced leakage: the two-qubit gate may leak one of its operands.
        if streams.leak.fires(&mut self.rng) {
            if self.rng.gen_bool(0.5) {
                self.frames.set_data_leaked(q, true);
            } else {
                self.frames.set_ancilla_leaked(check.id, true);
            }
        }
    }

    /// Applies a SWAP-based LRC gadget to a data qubit: clears leakage (replacing the
    /// leaked state by a random computational state), at the cost of extra depolarizing
    /// noise and a chance of re-leaking.
    fn apply_data_lrc(&mut self, q: DataQubitId) {
        let noise = self.noise_params();
        if self.frames.data_leaked(q) {
            self.frames.set_data_leaked(q, false);
            // The reset returns the qubit to a random computational state, equivalent to
            // a fully depolarizing channel on the frame.
            if self.rng.gen_bool(0.5) {
                self.frames.apply_data_pauli(q, Pauli::X);
            }
            if self.rng.gen_bool(0.5) {
                self.frames.apply_data_pauli(q, Pauli::Z);
            }
        }
        if noise.p_lrc() > 0.0 && self.rng.gen_bool(noise.p_lrc()) {
            let err = Pauli::random_error(&mut self.rng);
            self.frames.apply_data_pauli(q, err);
        }
        if noise.p_leak() > 0.0 && self.rng.gen_bool(noise.p_leak()) {
            self.frames.set_data_leaked(q, true);
        }
    }

    /// Applies an LRC / conditional reset to a parity qubit.
    fn apply_ancilla_lrc(&mut self, c: CheckId) {
        let noise = self.noise_params();
        if self.frames.ancilla_leaked(c) {
            self.frames.set_ancilla_leaked(c, false);
        }
        if noise.p_leak() > 0.0 && self.rng.gen_bool(noise.p_leak()) {
            self.frames.set_ancilla_leaked(c, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseParams;
    use crate::policy::{LrcRequest, NeverLrc};
    use crate::simulator::Simulator;
    use qec_codes::Code;
    use rand::SeedableRng;

    fn clean_noise() -> NoiseParams {
        NoiseParams::builder()
            .physical_error_rate(0.0)
            .leakage_ratio(0.0)
            .mobility(0.0)
            .mlr_false_flag(0.0)
            .build()
    }

    #[test]
    fn single_x_error_triggers_adjacent_z_detectors_once() {
        let code = Code::rotated_surface(3);
        let mut sim = Simulator::new(&code, clean_noise(), 1);
        // inject an X error before the first round
        sim.frames.apply_data_pauli(4, Pauli::X);
        let r0 = sim.run_round(&LrcRequest::none());
        let r1 = sim.run_round(&LrcRequest::none());
        let adjacent_z: Vec<usize> = code
            .checks_of(qec_codes::CheckBasis::Z)
            .filter(|c| c.support.contains(&4))
            .map(|c| c.id)
            .collect();
        assert_eq!(adjacent_z.len(), 2);
        // Detected in the first round, silent afterwards (detectors are differences).
        for &c in &adjacent_z {
            assert!(r0.detectors[c], "check {c} should fire in round 0");
            assert!(!r1.detectors[c], "check {c} should be silent in round 1");
        }
    }

    #[test]
    fn leaked_ancilla_randomizes_its_measurement() {
        let code = Code::rotated_surface(3);
        let mut noise = clean_noise();
        noise.mlr_enabled = true;
        let mut sim = Simulator::new(&code, noise, 5);
        sim.inject_ancilla_leakage(0);
        let mut ones = 0usize;
        let rounds = 400;
        for _ in 0..rounds {
            let record = sim.run_round(&LrcRequest::none());
            if record.measurements[0] {
                ones += 1;
            }
            // With zero miss probability the MLR flag must always fire for a leaked ancilla.
            assert!(record.mlr_leak_flags[0]);
        }
        let rate = ones as f64 / rounds as f64;
        assert!((rate - 0.5).abs() < 0.1, "leaked ancilla readout should be random, got {rate}");
    }

    #[test]
    fn mobility_spreads_leakage_from_data_to_ancilla() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder()
            .physical_error_rate(0.0)
            .leakage_ratio(0.0)
            .mobility(1.0)
            .mlr_false_flag(0.0)
            .build();
        let mut sim = Simulator::new(&code, noise, 8);
        sim.inject_data_leakage(4);
        let record = sim.run_round(&LrcRequest::none());
        // With mobility 1.0 every adjacent ancilla must end up leaked.
        let adjacency = code.data_adjacency();
        for entry in adjacency.neighbors(4) {
            assert!(record.ancilla_leak_after[entry.check], "check {} not leaked", entry.check);
        }
    }

    #[test]
    fn lrc_on_healthy_qubit_can_only_add_noise_not_leak_when_disabled() {
        let code = Code::rotated_surface(3);
        let noise = clean_noise();
        let mut sim = Simulator::new(&code, noise, 2);
        let record = sim.run_round(&LrcRequest { data: vec![0, 1, 2], ancilla: vec![0] });
        assert_eq!(record.lrc_count(), 4);
        assert_eq!(record.leaked_data_count(), 0);
    }

    #[test]
    fn cycle_time_grows_with_lrc_count() {
        let code = Code::rotated_surface(3);
        let noise = clean_noise();
        let mut sim = Simulator::new(&code, noise, 2);
        let quiet = sim.run_round(&LrcRequest::none());
        let busy = sim.run_round(&LrcRequest { data: vec![0, 1, 2, 3], ancilla: vec![] });
        assert!(busy.cycle_time_ns > quiet.cycle_time_ns);
        let delta = busy.cycle_time_ns - quiet.cycle_time_ns;
        assert!((delta - 4.0 * noise.lrc_time_ns).abs() < 1e-9);
    }

    #[test]
    fn error_rate_scaling_increases_detection_events() {
        let code = Code::rotated_surface(5);
        let low = NoiseParams::builder().physical_error_rate(1e-4).leakage_ratio(0.0).build();
        let high = NoiseParams::builder().physical_error_rate(1e-2).leakage_ratio(0.0).build();
        let count_detections = |noise: NoiseParams| -> usize {
            let mut sim = Simulator::new(&code, noise, 99);
            let run = sim.run_with_policy(&mut NeverLrc, 50);
            run.rounds.iter().map(|r| r.detectors.iter().filter(|&&d| d).count()).sum()
        };
        assert!(count_detections(high) > 10 * count_detections(low).max(1));
    }

    /// Replays a fixed list of words, then panics: pins exactly which draws a
    /// stream makes.
    struct Words(Vec<u64>);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            assert!(!self.0.is_empty(), "stream drew more words than expected");
            self.0.remove(0)
        }
    }

    /// The word whose 53-bit unit is `u`.
    fn word(u: f64) -> u64 {
        ((u * 9_007_199_254_740_992.0) as u64) << 11
    }

    /// Fires of `calls` trials, restarting the stream every `per_round` calls.
    fn hits(q: f64, per_round: usize, calls: usize, seed: u64) -> usize {
        let table = SurvivalTable::new(q, per_round);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut hits = 0;
        for round in 0..calls.div_ceil(per_round) {
            let mut stream = GapStream::start(&table, &mut rng);
            let trials = per_round.min(calls - round * per_round);
            hits += (0..trials).filter(|_| stream.fires(&mut rng)).count();
        }
        hits
    }

    #[test]
    fn gap_stream_with_q_zero_never_fires_and_draws_nothing() {
        let table = SurvivalTable::new(0.0, 100);
        let mut rng = Words(Vec::new());
        let mut stream = GapStream::start(&table, &mut rng);
        assert!((0..1000).all(|_| !stream.fires(&mut rng)));
    }

    #[test]
    fn gap_stream_with_q_one_fires_on_every_call() {
        assert_eq!(hits(1.0, 50, 10_000, 1), 10_000);
    }

    #[test]
    fn gap_stream_hit_counts_are_binomial() {
        let n = 1_000_000;
        for (i, q) in [1e-4, 1e-3, 0.1, 0.5].into_iter().enumerate() {
            let hits = hits(q, 153, n, 40 + i as u64) as f64;
            let (mean, sigma) = (n as f64 * q, (n as f64 * q * (1.0 - q)).sqrt());
            assert!((hits - mean).abs() <= 5.0 * sigma, "q={q}: {hits} hits, expected {mean}");
        }
    }

    #[test]
    fn gap_stream_end_of_table_means_no_more_events_this_round() {
        // t = [1, 0.5, 0.25]: u < 0.25 ends the round's events; [0.25, 0.5)
        // is a gap of 1; [0.5, 1) fires at once.
        let table = SurvivalTable::new(0.5, 2);
        let mut rng = Words(vec![word(0.1)]);
        let mut stream = GapStream::start(&table, &mut rng);
        assert!((0..10).all(|_| !stream.fires(&mut rng)), "past the table: no events");

        let mut rng = Words(vec![word(0.3), word(0.7), word(0.2)]);
        let mut stream = GapStream::start(&table, &mut rng);
        let fired: Vec<bool> = (0..6).map(|_| stream.fires(&mut rng)).collect();
        assert_eq!(fired, [false, true, true, false, false, false]);
        assert!(rng.0.is_empty(), "one draw per event, plus the start");
    }

    #[test]
    fn mlr_false_flags_over_rounds_are_binomial() {
        let code = Code::rotated_surface(5);
        let noise = NoiseParams::builder()
            .physical_error_rate(0.0)
            .mlr_enabled(true)
            .mlr_false_flag(0.01)
            .build();
        let mut sim = Simulator::new(&code, noise, 12);
        let rounds = 4000;
        let flagged: usize = (0..rounds)
            .map(|_| sim.run_round(&LrcRequest::none()))
            .map(|r| r.mlr_leak_flags.iter().filter(|&&f| f).count())
            .sum();
        let trials = (rounds * code.num_checks()) as f64;
        let (mean, sigma) = (trials * 0.01, (trials * 0.01 * 0.99).sqrt());
        assert!((flagged as f64 - mean).abs() <= 5.0 * sigma, "{flagged} flags, expected {mean}");
    }

    /// Mean `u64` draws per round of a d=5, 30-round no-LRC shot at the default
    /// noise, over 200 shots of the `seed + shot` ritual (seeding excluded).
    fn mean_draws_per_round(leakage_sampling: bool) -> f64 {
        let code = Code::rotated_surface(5);
        let mut sim = Simulator::new(&code, NoiseParams::default(), 0);
        let (shots, rounds) = (200u64, 30);
        let mut words = 0;
        for shot in 0..shots {
            sim.reseed_for_shot(1000, shot, leakage_sampling);
            let start = sim.rng.get_word_pos();
            let _ = sim.run_with_policy(&mut NeverLrc, rounds);
            words += sim.rng.get_word_pos() - start;
        }
        words as f64 / 2.0 / (shots as f64 * rounds as f64)
    }

    #[test]
    fn rounds_draw_per_noise_event_not_per_opportunity() {
        let clean = mean_draws_per_round(false);
        assert!(clean <= 30.0, "{clean} draws per leak-free round");
        let sampled = mean_draws_per_round(true);
        assert!(sampled <= 80.0, "{sampled} draws per leak-sampled round");
    }
}
