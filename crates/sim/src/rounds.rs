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
//!
//! # Leak-free rounds
//!
//! The syndrome-extraction circuit is written once, as the flat arrays of a
//! `Schedule` built with the simulator: each check's basis and support, every
//! CNOT in loop order (layer by layer, check by check) and each data qubit's
//! CNOTs in that order. The gate loop walks its CNOT list.
//!
//! A round is *leak-free* when, after its LRC step, no data or ancilla qubit is
//! leaked and the first gap of the leak stream is `NO_EVENT`. Such a round runs as
//! an event walk instead of the gate loop, and the two agree by construction:
//!
//! * **The same draws in the same order.** No leak trial fires, so no qubit leaks
//!   during the round: every gate is healthy, draws no leaked-gate coin and asks
//!   its `p` trial, and every readout asks its `p` and false-flag trials. The `p`
//!   stream's trials are therefore a fixed sequence (data noise, preparation, the
//!   CNOTs in loop order, readout) and the walk steps through its events by trial
//!   index. At each event it draws the next gap and then the event's Pauli, as
//!   `GapStream::fires` and its caller do. At readout it merges in the
//!   false-flag stream's events, check by check, with a check's `p` trial first.
//! * **Linear frame propagation.** Healthy CNOTs act on the Pauli frames by XOR,
//!   so a round's measurements are the noiseless parity of its frames plus the sum
//!   of each event's effect, and its data frames are the start plus each event's
//!   data change. The walk applies data-noise events to the frames, reads the
//!   noiseless parity, and then applies each later event's effect as it fires. A
//!   preparation or readout fault flips its check. A CNOT fault's data X (or Z)
//!   flips the Z (or X) checks whose CNOT on that qubit comes later in loop order
//!   (two CNOTs of one layer can share a qubit), and stays in the frame. Its
//!   ancilla part flips its own check, or, for a Z check's ancilla Z or an X
//!   check's ancilla X, lands on each of the check's later support qubits at that
//!   qubit's CNOT, where it acts as a data fault. Without faults a Z check's
//!   ancilla Z and an X check's ancilla X stay clear, so the gates change no data
//!   frame, and that kickback is the only way an ancilla fault reaches one.
//!
//! A round with no event is the walk's zero-event case: its noiseless readout. The
//! leak-free test comes after the LRC gadgets, which draw from the RNG and can
//! re-leak a qubit; `data_leak_before` is still taken before them. The gate loop stays the
//! one path for a round with a leaked qubit or a leak event.
//!
//! # Writing the round in place
//!
//! A round appends its flags to the caller's [`RunRecord`] arena
//! ([`RunRecord::push_round`]) and writes them there: measurements and MLR
//! flags bit by bit, detectors as the word XOR with the previous round's
//! measurements, and leak snapshots as word copies of the frames. The
//! within-round ancilla frames are scratch words the simulator keeps between
//! rounds, so a round allocates nothing.

use std::sync::Arc;

use rand::{Rng, RngCore};

use qec_codes::{CheckBasis, CheckId, Code, DataQubitId};

use crate::bits::{BitVec, BitsMut};
use crate::noise::NoiseParams;
use crate::pauli::{random_two_qubit_error, Pauli};
use crate::record::RunRecord;
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

    /// The event walk's step: after the event at trial `at` fires, draws the
    /// next gap as [`GapStream::fires`] does and returns the trial of the next
    /// event, or [`NO_EVENT`].
    #[inline]
    fn next_event<R: RngCore + ?Sized>(&self, at: usize, rng: &mut R) -> usize {
        match self.table.draw_gap(rng) {
            NO_EVENT => NO_EVENT,
            gap => at + 1 + gap,
        }
    }
}

/// One CNOT of the schedule, between `check`'s ancilla and data qubit `qubit`.
#[derive(Debug, Clone, Copy)]
struct Cnot {
    check: CheckId,
    qubit: DataQubitId,
    /// This CNOT's index in [`Schedule::check_cnots`].
    check_slot: usize,
    /// This CNOT's index in [`Schedule::qubit_cnots`].
    qubit_slot: usize,
}

/// A check of the schedule: its basis and where its entries end in the flat
/// arrays (each starts where the previous check's ends).
#[derive(Debug)]
struct CheckRow {
    basis: CheckBasis,
    /// End of this check's CNOTs in [`Schedule::check_cnots`].
    cnots_end: usize,
    /// End of this check's support words in [`Schedule::support_words`].
    words_end: usize,
}

/// The syndrome-extraction circuit as flat arrays, in a fixed number of
/// allocations: the one place its loop order is written (see "Leak-free rounds"
/// in the module docs).
#[derive(Debug)]
struct Schedule {
    /// Every check, by id.
    checks: Vec<CheckRow>,
    /// Every CNOT in loop order: layer by layer, and check by check within a
    /// layer (layer `t` holds the `t`-th support qubit of each check).
    cnots: Vec<Cnot>,
    /// Each check's CNOTs (indices into `cnots`) in support order.
    check_cnots: Vec<usize>,
    /// Each data qubit's CNOTs (indices into `cnots`) in loop order.
    qubit_cnots: Vec<usize>,
    /// End of each data qubit's CNOTs in `qubit_cnots`.
    qubit_ends: Vec<usize>,
    /// Each check's support as `(frame word, bit mask)` pairs.
    support_words: Vec<(usize, u64)>,
}

impl Schedule {
    fn new(code: &Code) -> Self {
        let total: usize = code.checks().iter().map(|check| check.weight()).sum();
        let mut checks = Vec::with_capacity(code.num_checks());
        let mut support_words = Vec::with_capacity(total);
        let mut cnots_end = 0;
        for (c, check) in code.checks().iter().enumerate() {
            assert_eq!(check.id, c, "check ids are positions in the check list");
            let start = support_words.len();
            for &q in &check.support {
                let (word, bit) = (q / 64, 1 << (q % 64));
                match support_words[start..].iter_mut().find(|(w, _)| *w == word) {
                    Some((_, mask)) => *mask |= bit,
                    None => support_words.push((word, bit)),
                }
            }
            cnots_end += check.weight();
            checks.push(CheckRow { basis: check.basis, cnots_end, words_end: support_words.len() });
        }
        let mut cnots = Vec::with_capacity(total);
        let mut check_cnots = vec![0; total];
        for t in 0..code.cnot_layers() {
            for (c, check) in code.checks().iter().enumerate() {
                if let Some(&qubit) = check.support.get(t) {
                    let check_slot = checks[c].cnots_end - check.weight() + t;
                    check_cnots[check_slot] = cnots.len();
                    cnots.push(Cnot { check: c, qubit, check_slot, qubit_slot: 0 });
                }
            }
        }
        // A counting sort by qubit that keeps loop order: `qubit_ends` holds
        // each qubit's start, then advances to its end as its CNOTs are placed.
        let mut qubit_ends = vec![0; code.num_data()];
        for cnot in &cnots {
            qubit_ends[cnot.qubit] += 1;
        }
        let mut start = 0;
        for slot in &mut qubit_ends {
            (*slot, start) = (start, start + *slot);
        }
        let mut qubit_cnots = vec![0; total];
        for (k, cnot) in cnots.iter_mut().enumerate() {
            cnot.qubit_slot = qubit_ends[cnot.qubit];
            qubit_cnots[cnot.qubit_slot] = k;
            qubit_ends[cnot.qubit] += 1;
        }
        Schedule { checks, cnots, check_cnots, qubit_cnots, qubit_ends, support_words }
    }

    fn num_data(&self) -> usize {
        self.qubit_ends.len()
    }

    /// Writes each check's parity of the data frames `x` (Z checks) and `z` (X
    /// checks) into `out`, a word of checks at a time.
    fn read_parities(&self, x: &[u64], z: &[u64], out: &mut BitsMut<'_>) {
        let mut start = 0;
        for (word, rows) in out.words_mut().iter_mut().zip(self.checks.chunks(64)) {
            *word = rows.iter().enumerate().fold(0, |acc, (bit, row)| {
                let frame = match row.basis {
                    CheckBasis::Z => x,
                    CheckBasis::X => z,
                };
                let support = self.support_words[start..row.words_end]
                    .iter()
                    .fold(0, |support, &(w, mask)| support ^ frame[w] & mask);
                start = row.words_end;
                acc | u64::from(support.count_ones() & 1) << bit
            });
        }
    }
}

/// `true` when `p` on a `basis` check's ancilla flips its readout, and when `p`
/// on a data qubit flips the `basis` checks whose CNOT on it comes later: X is
/// seen by Z checks and Z by X checks.
fn flips(basis: CheckBasis, p: Pauli) -> bool {
    match basis {
        CheckBasis::Z => p.has_x(),
        CheckBasis::X => p.has_z(),
    }
}

/// The survival tables of a simulator's three round streams, sized from the
/// code by the number of trials each stream can be asked per round, and the
/// schedule the round executor walks.
#[derive(Debug)]
pub(crate) struct RoundTables {
    /// `p`: data depolarization, ancilla preparation, CNOT depolarization and
    /// readout flips.
    p: SurvivalTable,
    /// `p_leak`: data, ancilla-preparation and gate-induced leakage.
    leak: SurvivalTable,
    /// `mlr_false_flag` on healthy ancillas (`q = 0` without MLR).
    false_flag: SurvivalTable,
    schedule: Schedule,
}

impl RoundTables {
    pub(crate) fn new(code: &Code, noise: &NoiseParams) -> Self {
        let schedule = Schedule::new(code);
        let (data, checks, cnots) = (code.num_data(), code.num_checks(), schedule.cnots.len());
        let false_flag = if noise.mlr_enabled { noise.mlr_false_flag } else { 0.0 };
        RoundTables {
            p: SurvivalTable::new(noise.p, data + 2 * checks + cnots),
            leak: SurvivalTable::new(noise.p_leak(), data + checks + cnots),
            false_flag: SurvivalTable::new(false_flag, checks),
            schedule,
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
/// reset every round, so this state never outlives `execute_round`; the simulator
/// keeps the words between rounds only to reuse them.
#[derive(Debug, Clone, Default)]
pub(crate) struct AncillaFrames {
    x: BitVec,
    z: BitVec,
}

impl AncillaFrames {
    pub(crate) fn new(n: usize) -> Self {
        AncillaFrames { x: BitVec::new(n), z: BitVec::new(n) }
    }

    fn apply(&mut self, c: CheckId, p: Pauli) {
        if p.has_x() {
            self.x.toggle(c);
        }
        if p.has_z() {
            self.z.toggle(c);
        }
    }
}

impl Simulator {
    /// Executes one QEC round: LRCs → data noise → ancilla prep → CNOT layers →
    /// readout, appends its observable record plus ground truth snapshots to
    /// `run`, and advances the round counter.
    ///
    /// With `EVENT_WALK` a leak-free round (see the module docs) runs as an event
    /// walk instead of the gate loop; production always compiles the walk in,
    /// and only the test reference compiles it out. Returns the number of noise
    /// events the walk applied, or `None` when the round ran the gate loop.
    pub(crate) fn execute_round<const EVENT_WALK: bool>(
        &mut self,
        data_lrcs: &[DataQubitId],
        ancilla_lrcs: &[CheckId],
        run: &mut RunRecord,
    ) -> Option<usize> {
        let lrcs = data_lrcs.len() + ancilla_lrcs.len();
        let cycle_time_ns = self.noise_params().round_ns(self.cnot_layers(), lrcs);
        let mut flags = run.push_round(data_lrcs, ancilla_lrcs, cycle_time_ns);
        flags.data_leak_before.copy_from(self.frames.data_leaks());
        let tables = Arc::clone(&self.round_tables);
        let mut streams = RoundStreams::start(&tables, &mut self.rng);

        // --- 1. Leakage-reduction circuits requested by the policy --------------------
        for &q in data_lrcs {
            self.apply_data_lrc(q);
        }
        for &c in ancilla_lrcs {
            self.apply_ancilla_lrc(c);
        }

        // --- 2.–5. Noise, ancilla prep, CNOT layers and readout ------------------------
        let leak_free = EVENT_WALK && streams.leak.gap == NO_EVENT && !self.frames.any_leaked();
        let events = if leak_free {
            Some(self.walk_events(
                &tables.schedule,
                &mut streams,
                &mut flags.measurements,
                &mut flags.mlr_leak_flags,
            ))
        } else {
            self.noisy_gates_and_readout(
                &tables.schedule,
                &mut streams,
                &mut flags.measurements,
                &mut flags.mlr_leak_flags,
            );
            None
        };

        // Detectors: XOR against the previous round's raw measurements.
        let measured = flags.measurements.as_bits().words();
        let mut previous = self.prev_measurements.as_bits_mut();
        for ((detector, &now), before) in
            flags.detectors.words_mut().iter_mut().zip(measured).zip(previous.words_mut())
        {
            *detector = now ^ *before;
            *before = now;
        }
        self.round_index += 1;

        flags.data_leak_after.copy_from(self.frames.data_leaks());
        flags.ancilla_leak_after.copy_from(self.frames.ancilla_leaks());
        events
    }

    /// [`Simulator::measure_ideal`] into `out`, one flag per check, a word of
    /// checks at a time (check ids are their positions in the check list).
    pub(crate) fn measure_ideal_into(&self, out: &mut BitsMut<'_>) {
        let (x, z) = (self.frames.data_x().words(), self.frames.data_z().words());
        self.round_tables.schedule.read_parities(x, z, out);
    }

    /// Steps 2–5 of a leak-free round as an event walk over the `p` stream, and
    /// over the false-flag stream at readout (see "Leak-free rounds" in the
    /// module docs), into the round's (clear) measurements and MLR leak flags.
    /// Returns the number of events applied.
    fn walk_events(
        &mut self,
        schedule: &Schedule,
        streams: &mut RoundStreams<'_>,
        measurements: &mut BitsMut<'_>,
        mlr_leak_flags: &mut BitsMut<'_>,
    ) -> usize {
        // The `p` stream's trials: data noise, preparation, CNOTs, readout.
        let prep = schedule.num_data();
        let gates = prep + schedule.checks.len();
        let readout = gates + schedule.cnots.len();
        let mut events = 0;
        let mut at = streams.p.gap;

        // --- 2. Data noise, then the noiseless parity of the frames it leaves ------------
        while at < prep {
            let q = at;
            at = streams.p.next_event(at, &mut self.rng);
            self.frames.apply_data_pauli(q, Pauli::random_error(&mut self.rng));
            events += 1;
        }
        self.measure_ideal_into(measurements);

        // --- 3. Preparation faults flip their check ------------------------------------
        while at < gates {
            measurements.toggle(at - prep);
            at = streams.p.next_event(at, &mut self.rng);
            events += 1;
        }

        // --- 4. CNOT faults --------------------------------------------------------------
        while at < readout {
            let k = at - gates;
            at = streams.p.next_event(at, &mut self.rng);
            let (pd, pa) = random_two_qubit_error(&mut self.rng);
            self.cnot_fault(schedule, k, pd, pa, measurements);
            events += 1;
        }

        // --- 5. Readout flips and false flags, check by check, `p` trial first ----------
        let (mut flip, mut flag) = (at - readout, streams.false_flag.gap);
        loop {
            let c = flip.min(flag);
            if c >= schedule.checks.len() {
                return events;
            }
            if flip == c {
                measurements.toggle(c);
                flip = streams.p.next_event(c, &mut self.rng);
                events += 1;
            }
            if flag == c {
                mlr_leak_flags.set(c, true);
                flag = streams.false_flag.next_event(c, &mut self.rng);
                events += 1;
            }
        }
    }

    /// A fault of a leak-free round that hits CNOT `k` right after the gate: `pd`
    /// on its data qubit and `pa` on its ancilla. Flips the measurements it
    /// reaches and leaves its data part in the frames.
    fn cnot_fault(
        &mut self,
        schedule: &Schedule,
        k: usize,
        pd: Pauli,
        pa: Pauli,
        measurements: &mut BitsMut<'_>,
    ) {
        let cnot = schedule.cnots[k];
        self.data_fault(schedule, cnot, pd, measurements);
        let row = &schedule.checks[cnot.check];
        if flips(row.basis, pa) {
            measurements.toggle(cnot.check);
        }
        // A Z check's ancilla Z kicks back onto each later control; an X
        // check's ancilla X is copied onto each later target.
        let (kicked, spread) = match row.basis {
            CheckBasis::Z => (pa.has_z(), Pauli::Z),
            CheckBasis::X => (pa.has_x(), Pauli::X),
        };
        if kicked {
            for &later in &schedule.check_cnots[cnot.check_slot + 1..row.cnots_end] {
                self.data_fault(schedule, schedule.cnots[later], spread, measurements);
            }
        }
    }

    /// `p` on `cnot`'s data qubit right after the gate: it stays in the frame
    /// and flips the checks that see it at a later CNOT on that qubit.
    fn data_fault(
        &mut self,
        schedule: &Schedule,
        cnot: Cnot,
        p: Pauli,
        measurements: &mut BitsMut<'_>,
    ) {
        self.frames.apply_data_pauli(cnot.qubit, p);
        for &later in &schedule.qubit_cnots[cnot.qubit_slot + 1..schedule.qubit_ends[cnot.qubit]] {
            let c = schedule.cnots[later].check;
            if flips(schedule.checks[c].basis, p) {
                measurements.toggle(c);
            }
        }
    }

    /// Steps 2–5 of a round with a leaked qubit or a leak event: start-of-round
    /// data noise, ancilla preparation, the schedule's CNOTs and readout into the
    /// round's (clear) measurements and MLR leak flags.
    fn noisy_gates_and_readout(
        &mut self,
        schedule: &Schedule,
        streams: &mut RoundStreams<'_>,
        measurements: &mut BitsMut<'_>,
        mlr_leak_flags: &mut BitsMut<'_>,
    ) {
        let noise = self.noise_params();

        // --- 2. Start-of-round data noise ---------------------------------------------
        for q in 0..schedule.num_data() {
            if streams.p.fires(&mut self.rng) {
                let err = Pauli::random_error(&mut self.rng);
                self.frames.apply_data_pauli(q, err);
            }
            if streams.leak.fires(&mut self.rng) {
                self.frames.set_data_leaked(q, true);
            }
        }

        // --- 3. Ancilla preparation ----------------------------------------------------
        let mut ancilla = std::mem::take(&mut self.ancilla);
        ancilla.x.clear();
        ancilla.z.clear();
        for (c, row) in schedule.checks.iter().enumerate() {
            if streams.p.fires(&mut self.rng) {
                // A faulty reset flips the observable the check measures.
                match row.basis {
                    CheckBasis::Z => ancilla.apply(c, Pauli::X),
                    CheckBasis::X => ancilla.apply(c, Pauli::Z),
                }
            }
            if streams.leak.fires(&mut self.rng) {
                self.frames.set_ancilla_leaked(c, true);
            }
        }

        // --- 4. CNOT layers -------------------------------------------------------------
        for cnot in &schedule.cnots {
            let basis = schedule.checks[cnot.check].basis;
            self.apply_syndrome_cnot(basis, cnot.check, cnot.qubit, &mut ancilla, streams);
        }

        // --- 5. Readout ------------------------------------------------------------------
        for (c, row) in schedule.checks.iter().enumerate() {
            if self.frames.ancilla_leaked(c) {
                // Leaked parity qubit: two-level readout yields a random bit.
                measurements.set(c, self.rng.gen_bool(0.5));
                if noise.mlr_enabled {
                    let missed = noise.mlr_miss() > 0.0 && self.rng.gen_bool(noise.mlr_miss());
                    mlr_leak_flags.set(c, !missed);
                }
            } else {
                let ideal = match row.basis {
                    CheckBasis::Z => ancilla.x.get(c),
                    CheckBasis::X => ancilla.z.get(c),
                };
                measurements.set(c, ideal ^ streams.p.fires(&mut self.rng));
                if streams.false_flag.fires(&mut self.rng) {
                    mlr_leak_flags.set(c, true);
                }
            }
        }
        self.ancilla = ancilla;
    }

    /// One CNOT of the syndrome-extraction circuit between the ancilla of check `c`
    /// (of `basis`) and data qubit `q`, including all noise channels. A gate with a
    /// leaked operand asks no stream for its depolarizing or leakage trial.
    fn apply_syndrome_cnot(
        &mut self,
        basis: CheckBasis,
        c: CheckId,
        q: DataQubitId,
        ancilla: &mut AncillaFrames,
        streams: &mut RoundStreams<'_>,
    ) {
        let noise = self.noise_params();
        let data_leaked = self.frames.data_leaked(q);
        let anc_leaked = self.frames.ancilla_leaked(c);

        if data_leaked || anc_leaked {
            // Malfunctioning gate (calibrated on IBM hardware, Section 2.3): the healthy
            // operand either inherits the leakage (probability `mobility`) or suffers a
            // uniformly random Pauli, i.e. a 50% chance of a bit flip.
            if data_leaked && !anc_leaked {
                if noise.mobility > 0.0 && self.rng.gen_bool(noise.mobility) {
                    self.frames.set_ancilla_leaked(c, true);
                } else {
                    let p = Pauli::random_uniform(&mut self.rng);
                    ancilla.apply(c, p);
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
        match basis {
            CheckBasis::Z => {
                // CNOT with data as control, ancilla as target.
                if self.frames.data_has_x(q) {
                    ancilla.x.toggle(c);
                }
                if ancilla.z.get(c) {
                    self.frames.apply_data_pauli(q, Pauli::Z);
                }
            }
            CheckBasis::X => {
                // CNOT with ancilla as control, data as target.
                if ancilla.x.get(c) {
                    self.frames.apply_data_pauli(q, Pauli::X);
                }
                if self.frames.data_has_z(q) {
                    ancilla.apply(c, Pauli::Z);
                }
            }
        }

        // Two-qubit depolarizing noise.
        if streams.p.fires(&mut self.rng) {
            let (pd, pa) = random_two_qubit_error(&mut self.rng);
            self.frames.apply_data_pauli(q, pd);
            ancilla.apply(c, pa);
        }

        // Gate-induced leakage: the two-qubit gate may leak one of its operands.
        if streams.leak.fires(&mut self.rng) {
            if self.rng.gen_bool(0.5) {
                self.frames.set_data_leaked(q, true);
            } else {
                self.frames.set_ancilla_leaked(c, true);
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
    use crate::frame::QubitFrames;
    use crate::noise::NoiseParams;
    use crate::policy::{LrcRequest, NeverLrc};
    use crate::record::RunRecord;
    use crate::simulator::Simulator;
    use qec_codes::Code;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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
        let mut run = RunRecord::new(code.num_data(), code.num_checks());
        sim.run_round(&[], &[], &mut run);
        sim.run_round(&[], &[], &mut run);
        let (r0, r1) = (run.round(0), run.round(1));
        let adjacent_z: Vec<usize> = code
            .checks_of(qec_codes::CheckBasis::Z)
            .filter(|c| c.support.contains(&4))
            .map(|c| c.id)
            .collect();
        assert_eq!(adjacent_z.len(), 2);
        // Detected in the first round, silent afterwards (detectors are differences).
        for &c in &adjacent_z {
            assert!(r0.detectors().get(c), "check {c} should fire in round 0");
            assert!(!r1.detectors().get(c), "check {c} should be silent in round 1");
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
        let mut run = RunRecord::new(code.num_data(), code.num_checks());
        for _ in 0..rounds {
            sim.run_round(&[], &[], &mut run);
        }
        for record in run.rounds() {
            if record.measurements().get(0) {
                ones += 1;
            }
            // With zero miss probability the MLR flag must always fire for a leaked ancilla.
            assert!(record.mlr_leak_flags().get(0));
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
        let mut run = RunRecord::new(code.num_data(), code.num_checks());
        sim.run_round(&[], &[], &mut run);
        // With mobility 1.0 every adjacent ancilla must end up leaked.
        for check in code.checks().iter().filter(|c| c.support.contains(&4)) {
            let leaked = run.round(0).ancilla_leak_after().get(check.id);
            assert!(leaked, "check {} not leaked", check.id);
        }
    }

    #[test]
    fn lrc_on_healthy_qubit_can_only_add_noise_not_leak_when_disabled() {
        let code = Code::rotated_surface(3);
        let noise = clean_noise();
        let mut sim = Simulator::new(&code, noise, 2);
        let mut run = RunRecord::new(code.num_data(), code.num_checks());
        sim.run_round(&[0, 1, 2], &[0], &mut run);
        assert_eq!(run.round(0).lrc_count(), 4);
        assert_eq!(run.round(0).leaked_data_count(), 0);
    }

    #[test]
    fn cycle_time_grows_with_lrc_count() {
        let code = Code::rotated_surface(3);
        let noise = clean_noise();
        let mut sim = Simulator::new(&code, noise, 2);
        let mut run = RunRecord::new(code.num_data(), code.num_checks());
        sim.run_round(&[], &[], &mut run);
        sim.run_round(&[0, 1, 2, 3], &[], &mut run);
        let (quiet, busy) = (run.round(0), run.round(1));
        assert!(busy.cycle_time_ns() > quiet.cycle_time_ns());
        let delta = busy.cycle_time_ns() - quiet.cycle_time_ns();
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
            run.rounds().iter().map(|r| r.detectors().count_ones()).sum()
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
        let mut run = RunRecord::with_capacity(code.num_data(), code.num_checks(), rounds);
        for _ in 0..rounds {
            sim.run_round(&[], &[], &mut run);
        }
        let flagged: usize = run.rounds().iter().map(|r| r.mlr_leak_flags().count_ones()).sum();
        let trials = (rounds * code.num_checks()) as f64;
        let (mean, sigma) = (trials * 0.01, (trials * 0.01 * 0.99).sqrt());
        assert!((flagged as f64 - mean).abs() <= 5.0 * sigma, "{flagged} flags, expected {mean}");
    }

    /// A seeded random LRC request with ascending ids: each leaked qubit with
    /// probability 1/2, each healthy one with probability 1/32.
    fn random_request(frames: &QubitFrames, rng: &mut ChaCha8Rng) -> LrcRequest {
        fn pick(leaked: bool, rng: &mut ChaCha8Rng) -> bool {
            rng.gen_bool(if leaked { 0.5 } else { 1.0 / 32.0 })
        }
        LrcRequest {
            data: (0..frames.num_data()).filter(|&q| pick(frames.data_leaked(q), rng)).collect(),
            ancilla: (0..frames.num_ancilla())
                .filter(|&c| pick(frames.ancilla_leaked(c), rng))
                .collect(),
        }
    }

    #[test]
    fn event_rounds_match_the_full_gate_loop() {
        let codes = [
            Code::rotated_surface(3),
            Code::rotated_surface(5),
            Code::rotated_surface(7),
            Code::color_666(3),
            Code::color_666(5),
            Code::hgp(2),
            Code::bpc(14),
        ];
        let mut noises = Vec::new();
        for p in [0.0, 1e-3, 1e-2] {
            for lr in [0.0, 0.1, 1.0] {
                for mobility in [0.0, 0.1, 1.0] {
                    for mlr in [false, true] {
                        noises.push(
                            NoiseParams::builder()
                                .physical_error_rate(p)
                                .leakage_ratio(lr)
                                .mobility(mobility)
                                .mlr_enabled(mlr)
                                .build(),
                        );
                    }
                }
            }
        }
        // Dense noise with frequent false flags, so a readout `p` event and a
        // false flag land on one check and their draw order shows.
        for lr in [0.0, 0.1] {
            noises.push(
                NoiseParams::builder()
                    .physical_error_rate(0.1)
                    .leakage_ratio(lr)
                    .mlr_enabled(true)
                    .mlr_false_flag(0.3)
                    .build(),
            );
        }
        for code in &codes {
            // Rounds of the event walk with no event and with some, and of the
            // gate loop.
            let (mut silent, mut eventful, mut looped) = (0, 0, 0);
            for (i, &noise) in noises.iter().enumerate() {
                // One seeded leak per shot, so LRCs also land on leaked qubits.
                let mut fast = Simulator::new(code, noise, 0);
                fast.reseed_for_shot(1000, i as u64, true);
                let mut reference = fast.clone();
                let mut requests = ChaCha8Rng::seed_from_u64(i as u64);
                let mut fast_run = RunRecord::new(code.num_data(), code.num_checks());
                let mut reference_run = fast_run.clone();
                for round in 0..12 {
                    let request = random_request(fast.frames(), &mut requests);
                    let (data, ancilla) = (&request.data, &request.ancilla);
                    let events = fast.execute_round::<true>(data, ancilla, &mut fast_run);
                    let walked =
                        reference.execute_round::<false>(data, ancilla, &mut reference_run);
                    let at = format!("{} {noise:?} round {round}", code.name());
                    assert_eq!(walked, None, "the reference compiles the event walk out");
                    assert_eq!(fast_run.round(round), reference_run.round(round), "{at}");
                    assert_eq!(fast.frames(), reference.frames(), "{at}");
                    assert_eq!(fast.rng.get_word_pos(), reference.rng.get_word_pos(), "{at}");
                    assert_eq!(fast.checkpoint(), reference.checkpoint(), "{at}");
                    match events {
                        Some(0) => silent += 1,
                        Some(_) => eventful += 1,
                        None => looped += 1,
                    }
                }
            }
            let counts =
                format!("{}: {silent} silent, {eventful} eventful, {looped} looped", code.name());
            assert!(silent > 0 && eventful > 0 && looped > 0, "{counts}");
        }
    }

    /// Every single Pauli fault right after every CNOT of a leak-free round: the
    /// event walk's effect on the noiseless readout equals the production gate
    /// loop run over the same schedule with that fault injected, on seeded
    /// random start frames, in measurements and frames.
    #[test]
    fn single_cnot_faults_match_the_gate_loop() {
        let codes = [
            Code::rotated_surface(3),
            Code::rotated_surface(5),
            Code::rotated_surface(7),
            Code::color_666(3),
            Code::color_666(5),
            Code::hgp(2),
            Code::bpc(14),
        ];
        let faults: Vec<(Pauli, Pauli)> = Pauli::ALL
            .into_iter()
            .flat_map(|pd| Pauli::ALL.map(|pa| (pd, pa)))
            .filter(|&fault| fault != (Pauli::I, Pauli::I))
            .collect();
        assert_eq!(faults.len(), 15);
        let mut cases = 0;
        for (seed, code) in codes.iter().enumerate() {
            // Clean noise: the gate loop's streams never fire and draw nothing.
            let mut walked = Simulator::new(code, clean_noise(), 0);
            let mut looped = walked.clone();
            let tables = Arc::clone(&walked.round_tables);
            let schedule = &tables.schedule;
            let mut frames = ChaCha8Rng::seed_from_u64(seed as u64);
            let mut start = QubitFrames::new(code.num_data(), code.num_checks());
            let mut walked_measurements = BitVec::new(code.num_checks());
            let mut ancilla = AncillaFrames::new(code.num_checks());
            for k in 0..schedule.cnots.len() {
                start.clear();
                for q in 0..code.num_data() {
                    start.apply_data_pauli(q, Pauli::ALL[frames.gen_range(0..4)]);
                }
                for &(pd, pa) in &faults {
                    walked.frames.clone_from(&start);
                    let mut measurements = walked_measurements.as_bits_mut();
                    walked.measure_ideal_into(&mut measurements);
                    walked.cnot_fault(schedule, k, pd, pa, &mut measurements);

                    looped.frames.clone_from(&start);
                    let mut streams = RoundStreams::start(&tables, &mut looped.rng);
                    ancilla.x.clear();
                    ancilla.z.clear();
                    for (j, cnot) in schedule.cnots.iter().enumerate() {
                        let basis = schedule.checks[cnot.check].basis;
                        looped.apply_syndrome_cnot(
                            basis,
                            cnot.check,
                            cnot.qubit,
                            &mut ancilla,
                            &mut streams,
                        );
                        if j == k {
                            looped.frames.apply_data_pauli(cnot.qubit, pd);
                            ancilla.apply(cnot.check, pa);
                        }
                    }
                    let looped_measurements: BitVec = (schedule.checks.iter().enumerate())
                        .map(|(c, row)| match row.basis {
                            CheckBasis::Z => ancilla.x.get(c),
                            CheckBasis::X => ancilla.z.get(c),
                        })
                        .collect();
                    let at = format!("{} CNOT {k} fault {pd}{pa}", code.name());
                    assert_eq!(walked_measurements, looped_measurements, "{at}");
                    assert_eq!(walked.frames, looped.frames, "{at}");
                    cases += 1;
                }
            }
        }
        // 1,220 CNOTs over the seven codes, 15 faults each.
        assert_eq!(cases, 18_300);
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
