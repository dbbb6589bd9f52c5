//! Adaptive shot allocation: confidence-targeted sweeps with deterministic,
//! resumable checkpoints.
//!
//! Fixed-shot sweeps are statistically dishonest at the paper's headline
//! regime (logical error rates around 1e-6): easy cells waste millions of
//! shots, hard cells report meaningless zeros. This module converts
//! [`SweepSpec::shots`] into a per-cell **ceiling** and allocates shots
//! sequentially, in *rounds*, until each cell's Wilson score interval on its
//! Bernoulli failure rate (logical errors when decoding, non-zero final DLP
//! otherwise) reaches a target relative half-width — or the ceiling.
//!
//! # Determinism and the resume oracle
//!
//! Everything the driver does is a pure function of the spec:
//!
//! * **Batch sizes** come from [`round_batch`]`(seed, cell, round)` — a
//!   doubling schedule with splitmix-style jitter, never wall clock.
//! * **Shot results** come from [`BatchEngine::score_range`]: shot `i` runs
//!   under `seed + i`, so batching cannot change a bit.
//! * **Aggregation** folds runs into a [`MetricsAccumulator`] in shot order —
//!   plain left-fold partial sums whose state is checkpointed bit-exactly
//!   (raw IEEE-754 bits) at every round boundary.
//! * **Stopping** ([`stop_decision`]) is a pure function of the cell's tally.
//!
//! A run stopped at *any* round boundary and resumed from its checkpoint
//! therefore replays the exact addition sequence of the uninterrupted run and
//! renders a byte-identical report; `crates/experiments/tests/adaptive.rs`
//! pins that oracle (and the CI `adaptive-smoke` job `kill -9`s a live run).
//!
//! # Checkpoint layout
//!
//! The checkpoint directory holds two files:
//!
//! * [`ADAPTIVE_FILE`] (`adaptive.json`) — written once at start: schema
//!   version, generator, and the full [`SweepSpec`] including its
//!   [`AdaptiveSpec`] block. Immutable for the life of the run.
//! * [`STATE_FILE`] (`state.qad`) — atomically replaced (write-temp + rename)
//!   at every round boundary: magic, then CRC-32-framed blocks exactly like
//!   `.qtr` (tag + varint length + payload + CRC trailer) carrying the round
//!   counter, a spec fingerprint, and one [`MetricsAccumulator`] per cell.
//!   Single-byte flips and truncations are loud, typed
//!   [`TraceError`]s — a torn checkpoint can never silently restart a cell
//!   from zero (`crates/experiments/tests/adaptive.rs` mirrors the `.qtr`
//!   corruption suite against it).

use std::path::Path;

use serde::{Deserialize, Serialize};

use qec_trace::wire::{read_block, write_block, Decoder, Encoder, MAX_BLOCK_LEN};
use qec_trace::{Corpus, TraceError};

use crate::engine::BatchEngine;
use crate::metrics::MetricsAccumulator;
use crate::scenario::Scenario;
use crate::sweep::{
    git_describe, SharedEngines, SweepCell, SweepReport, SweepSpec, SWEEP_SCHEMA_VERSION,
};

/// Version of the adaptive checkpoint schema (`adaptive.json` **and** the
/// binary `state.qad` blocks); bump when either shape changes, or when the
/// simulator maps its RNG stream to noise events differently (a resumed tally
/// must never mix two streams).
pub const ADAPTIVE_SCHEMA_VERSION: u32 = 2;

/// File name of the immutable run descriptor inside a checkpoint directory.
pub const ADAPTIVE_FILE: &str = "adaptive.json";

/// File name of the per-round mutable tally state inside a checkpoint
/// directory.
pub const STATE_FILE: &str = "state.qad";

/// Magic bytes opening a `state.qad` file.
pub const STATE_MAGIC: [u8; 4] = *b"QAD1";

/// `state.qad` block tag: run header (schema, spec fingerprint, round, cells).
const BLOCK_STATE: u8 = 0x01;
/// `state.qad` block tag: one cell's tally (scenario id + accumulator).
const BLOCK_CELL: u8 = 0x02;
/// `state.qad` block tag: end marker (cell count cross-check).
const BLOCK_DONE: u8 = 0x03;

// ---------------------------------------------------------------------------------
// The adaptive block of a SweepSpec
// ---------------------------------------------------------------------------------

/// The adaptive-allocation block of a [`SweepSpec`]: when present, the spec's
/// `shots` is a per-cell ceiling and cells stop early once their Wilson
/// interval is tight enough.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSpec {
    /// Stop a cell when the Wilson interval's half-width divided by its
    /// center is at or below this value (e.g. `0.1` = ±10% relative).
    pub target_rel_halfwidth: f64,
    /// Confidence level of the interval (e.g. `0.95`).
    pub confidence: f64,
    /// Shots of the first round's batch; later rounds double (plus
    /// deterministic jitter, see [`round_batch`]).
    pub initial_batch: usize,
}

impl Default for AdaptiveSpec {
    fn default() -> Self {
        AdaptiveSpec { target_rel_halfwidth: 0.1, confidence: 0.95, initial_batch: 64 }
    }
}

impl AdaptiveSpec {
    /// Validates the block's parameters.
    ///
    /// # Errors
    /// Returns a message naming the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.target_rel_halfwidth.is_finite() && self.target_rel_halfwidth > 0.0) {
            return Err(format!(
                "adaptive target_rel_halfwidth must be positive and finite, got {}",
                self.target_rel_halfwidth
            ));
        }
        if !(self.confidence >= 0.5 && self.confidence < 1.0) {
            return Err(format!(
                "adaptive confidence must be in [0.5, 1), got {}",
                self.confidence
            ));
        }
        if self.initial_batch == 0 {
            return Err("adaptive initial_batch must be at least 1".to_string());
        }
        Ok(())
    }

    /// The normal quantile `z` matching the block's confidence level.
    #[must_use]
    pub fn z(&self) -> f64 {
        z_for_confidence(self.confidence)
    }
}

// ---------------------------------------------------------------------------------
// Estimator core: probit, Wilson interval, stopping rule
// ---------------------------------------------------------------------------------

/// The standard-normal quantile function Φ⁻¹ (Acklam's rational
/// approximation, |relative error| < 1.15e-9 over the open unit interval).
/// Pure f64 arithmetic — no tables, no global state — so the stopping rule
/// built on it is a deterministic function of its inputs.
///
/// # Panics
/// Panics outside the open interval `(0, 1)`.
#[must_use]
pub fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit domain is (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -probit(1.0 - p)
    }
}

/// The two-sided normal quantile for a confidence level: `z` such that a
/// standard normal lands in `[-z, z]` with probability `confidence`
/// (`z_for_confidence(0.95) ≈ 1.96`).
///
/// # Panics
/// Panics when `confidence` is outside `[0, 1)`.
#[must_use]
pub fn z_for_confidence(confidence: f64) -> f64 {
    probit(0.5 + confidence / 2.0)
}

/// A Wilson score interval on a Bernoulli rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WilsonInterval {
    /// The interval's center (the shrunk point estimate).
    pub center: f64,
    /// Half the interval's width.
    pub halfwidth: f64,
}

impl WilsonInterval {
    /// The interval's relative half-width `halfwidth / center`
    /// (`f64::INFINITY` when the center is zero).
    #[must_use]
    pub fn relative_halfwidth(&self) -> f64 {
        if self.center > 0.0 {
            self.halfwidth / self.center
        } else {
            f64::INFINITY
        }
    }
}

/// The Wilson score interval for `failures` successes out of `trials`
/// Bernoulli trials at normal quantile `z`:
///
/// ```text
/// center    = (p̂ + z²/2n) / (1 + z²/n)
/// halfwidth = z·√(p̂(1−p̂)/n + z²/4n²) / (1 + z²/n)
/// ```
///
/// Unlike the Wald interval it never collapses to zero width at `p̂ = 0`, so
/// a cell that has seen no failures keeps an honest upper bound and keeps
/// allocating.
///
/// # Panics
/// Panics when `trials` is zero or `failures > trials`.
#[must_use]
pub fn wilson_interval(failures: u64, trials: u64, z: f64) -> WilsonInterval {
    assert!(trials > 0, "Wilson interval needs at least one trial");
    assert!(failures <= trials, "failures {failures} > trials {trials}");
    let n = trials as f64;
    let p = failures as f64 / n;
    let zz = z * z;
    let denom = 1.0 + zz / n;
    let center = (p + zz / (2.0 * n)) / denom;
    let halfwidth = z * (p * (1.0 - p) / n + zz / (4.0 * n * n)).sqrt() / denom;
    WilsonInterval { center, halfwidth }
}

/// Why a cell stopped allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The Wilson interval reached the target relative half-width.
    Converged,
    /// The cell hit the shot ceiling first.
    Ceiling,
}

/// The stopping rule: a **pure function of the tally** — same
/// `(failures, trials, shots_done)` always yields the same decision,
/// independent of every other cell, of wall clock, and of how the tally was
/// batched. `None` means keep allocating.
///
/// A cell converges once it has at least one failure and its Wilson interval
/// at the block's confidence is relatively tight enough; a zero-failure cell
/// can only stop at the ceiling (its rate estimate has no meaningful relative
/// width yet).
#[must_use]
pub fn stop_decision(
    failures: u64,
    trials: u64,
    shots_done: usize,
    ceiling: usize,
    adaptive: &AdaptiveSpec,
) -> Option<StopReason> {
    if failures > 0 && trials > 0 {
        let interval = wilson_interval(failures, trials, adaptive.z());
        if interval.relative_halfwidth() <= adaptive.target_rel_halfwidth {
            return Some(StopReason::Converged);
        }
    }
    if shots_done >= ceiling {
        return Some(StopReason::Ceiling);
    }
    None
}

/// The stopping decision for one cell's accumulated state.
#[must_use]
pub fn cell_decision(
    acc: &MetricsAccumulator,
    ceiling: usize,
    adaptive: &AdaptiveSpec,
) -> Option<StopReason> {
    let (failures, trials) = acc.bernoulli_tally();
    stop_decision(failures, trials, acc.shots, ceiling, adaptive)
}

// ---------------------------------------------------------------------------------
// The round schedule
// ---------------------------------------------------------------------------------

/// The batch size cell `cell_hash` receives in allocation round `round`
/// (before clamping to the cell's remaining ceiling): `initial_batch`
/// doubling per round, plus a deterministic splitmix-style jitter of up to
/// 1/8 of the base derived from `(seed, cell_hash, round)` — **never** wall
/// clock, thread count, or any other ambient state. The jitter keeps cells
/// from marching in lockstep (distinct cells hit their stopping checks at
/// staggered shot counts) while staying a pure function of the run identity,
/// which is what makes the resume oracle possible at all.
#[must_use]
pub fn round_batch(seed: u64, cell_hash: u64, round: u64, initial_batch: u64) -> u64 {
    let base = initial_batch.max(1).saturating_mul(1u64 << round.min(20));
    let mut x = seed ^ cell_hash.rotate_left(17) ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    base.saturating_add(x % (base / 8 + 1))
}

/// The 64-bit hash a cell's jitter (and its checkpoint identity) keys on:
/// the FNV-1a hash of the scenario id, which names the cell uniquely within
/// one expansion (axes + policy + decoder).
#[must_use]
pub fn cell_hash(scenario: &Scenario) -> u64 {
    Corpus::cell_hash(&scenario.id())
}

// ---------------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------------

/// The immutable run descriptor serialized to [`ADAPTIVE_FILE`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveCheckpoint {
    /// [`ADAPTIVE_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Tool and version that started the run.
    pub generator: String,
    /// The full sweep spec, including its `adaptive` block.
    pub spec: SweepSpec,
}

/// One cell's persisted tally: the scenario id it belongs to plus the
/// bit-exact accumulator state.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTally {
    /// [`Scenario::id`] of the cell, cross-checked against the expansion on
    /// resume (guards against a state file from a different spec or ordering).
    pub id: String,
    /// The cell's accumulated partial sums after the checkpointed round.
    pub acc: MetricsAccumulator,
}

/// The mutable state loaded from a [`STATE_FILE`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// FNV-1a hash of the canonical spec JSON the state belongs to.
    pub spec_fingerprint: u64,
    /// Completed allocation rounds.
    pub rounds: u64,
    /// One tally per cell, in expansion order.
    pub cells: Vec<CellTally>,
}

/// The fingerprint stored in (and demanded of) a state file: the FNV-1a hash
/// of the spec's canonical JSON rendering.
#[must_use]
pub fn spec_fingerprint(spec: &SweepSpec) -> u64 {
    Corpus::cell_hash(&serde_json::to_string(spec).expect("specs always serialize"))
}

fn encode_accumulator(enc: &mut Encoder, acc: &MetricsAccumulator) {
    enc.put_usize(acc.shots);
    enc.put_f64(acc.false_positives);
    enc.put_f64(acc.false_negatives);
    enc.put_f64(acc.data_lrcs);
    enc.put_f64(acc.ancilla_lrcs);
    enc.put_f64(acc.rounds);
    enc.put_f64(acc.average_dlp);
    enc.put_f64(acc.final_dlp);
    enc.put_usize(acc.dlp_series.len());
    for &sum in &acc.dlp_series {
        enc.put_f64(sum);
    }
    enc.put_f64(acc.inaccuracy_per_round);
    enc.put_f64(acc.total_time_ns);
    enc.put_f64(acc.lrc_time_ns);
    enc.put_usize(acc.decoded);
    enc.put_usize(acc.errors);
    enc.put_usize(acc.dlp_events);
}

fn decode_accumulator(dec: &mut Decoder<'_>) -> Result<MetricsAccumulator, TraceError> {
    let shots = dec.take_usize()?;
    let false_positives = dec.take_f64()?;
    let false_negatives = dec.take_f64()?;
    let data_lrcs = dec.take_f64()?;
    let ancilla_lrcs = dec.take_f64()?;
    let rounds = dec.take_f64()?;
    let average_dlp = dec.take_f64()?;
    let final_dlp = dec.take_f64()?;
    let dlp_len = dec.take_usize()?;
    let mut dlp_series = Vec::with_capacity(dlp_len.min(1 << 20));
    for _ in 0..dlp_len {
        dlp_series.push(dec.take_f64()?);
    }
    Ok(MetricsAccumulator {
        shots,
        false_positives,
        false_negatives,
        data_lrcs,
        ancilla_lrcs,
        rounds,
        average_dlp,
        final_dlp,
        dlp_series,
        inaccuracy_per_round: dec.take_f64()?,
        total_time_ns: dec.take_f64()?,
        lrc_time_ns: dec.take_f64()?,
        decoded: dec.take_usize()?,
        errors: dec.take_usize()?,
        dlp_events: dec.take_usize()?,
    })
}

/// Atomically writes `state` to `dir/`[`STATE_FILE`]: the bytes are staged in
/// full, written to a temporary sibling and renamed over the old state, so a
/// crash at any instant leaves either the previous round's checkpoint or the
/// new one — never a torn file passing its CRCs.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_checkpoint_state(dir: &Path, state: &CheckpointState) -> Result<(), TraceError> {
    let mut bytes: Vec<u8> = Vec::new();
    bytes.extend_from_slice(&STATE_MAGIC);
    let mut header = Encoder::new();
    header.put_varint(u64::from(ADAPTIVE_SCHEMA_VERSION));
    header.put_varint(state.spec_fingerprint);
    header.put_varint(state.rounds);
    header.put_usize(state.cells.len());
    write_block(&mut bytes, BLOCK_STATE, &header.into_bytes())?;
    for cell in &state.cells {
        let mut payload = Encoder::new();
        payload.put_str(&cell.id);
        encode_accumulator(&mut payload, &cell.acc);
        write_block(&mut bytes, BLOCK_CELL, &payload.into_bytes())?;
    }
    let mut end = Encoder::new();
    end.put_usize(state.cells.len());
    write_block(&mut bytes, BLOCK_DONE, &end.into_bytes())?;
    let tmp = dir.join(format!("{STATE_FILE}.tmp"));
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, dir.join(STATE_FILE))?;
    Ok(())
}

/// Reads and validates `dir/`[`STATE_FILE`]. Every block's CRC-32 is checked
/// (exactly like `.qtr` blocks), the header and end block cross-check the
/// cell count, and trailing garbage is rejected — a flipped byte or a
/// truncation anywhere yields a typed [`TraceError`], never a silently
/// shortened tally.
///
/// # Errors
/// [`TraceError::Io`] when the file is missing/unreadable, otherwise
/// [`TraceError::Corrupt`] naming the first structural violation.
pub fn read_checkpoint_state(dir: &Path) -> Result<CheckpointState, TraceError> {
    let bytes = std::fs::read(dir.join(STATE_FILE))?;
    let mut reader: &[u8] = &bytes;
    let mut magic = [0u8; 4];
    std::io::Read::read_exact(&mut reader, &mut magic)?;
    if magic != STATE_MAGIC {
        return Err(TraceError::Corrupt(format!("bad checkpoint magic {magic:02x?}")));
    }
    let (tag, payload) = read_block(&mut reader, MAX_BLOCK_LEN)?;
    if tag != BLOCK_STATE {
        return Err(TraceError::Corrupt(format!(
            "expected checkpoint header block, got tag {tag:#04x}"
        )));
    }
    let mut dec = Decoder::new(&payload);
    let schema = dec.take_varint()?;
    if schema != u64::from(ADAPTIVE_SCHEMA_VERSION) {
        return Err(TraceError::Corrupt(format!(
            "checkpoint state schema {schema} unsupported (this build reads \
             {ADAPTIVE_SCHEMA_VERSION})"
        )));
    }
    let spec_fingerprint = dec.take_varint()?;
    let rounds = dec.take_varint()?;
    let cell_count = dec.take_usize()?;
    dec.expect_finished()?;
    let mut cells = Vec::with_capacity(cell_count.min(1 << 16));
    for _ in 0..cell_count {
        let (tag, payload) = read_block(&mut reader, MAX_BLOCK_LEN)?;
        if tag != BLOCK_CELL {
            return Err(TraceError::Corrupt(format!("expected cell block, got tag {tag:#04x}")));
        }
        let mut dec = Decoder::new(&payload);
        let id = dec.take_str()?;
        let acc = decode_accumulator(&mut dec)?;
        dec.expect_finished()?;
        cells.push(CellTally { id, acc });
    }
    let (tag, payload) = read_block(&mut reader, MAX_BLOCK_LEN)?;
    if tag != BLOCK_DONE {
        return Err(TraceError::Corrupt(format!("expected end block, got tag {tag:#04x}")));
    }
    let mut dec = Decoder::new(&payload);
    let end_count = dec.take_usize()?;
    dec.expect_finished()?;
    if end_count != cells.len() {
        return Err(TraceError::Corrupt(format!(
            "end block says {end_count} cells, read {}",
            cells.len()
        )));
    }
    if !reader.is_empty() {
        return Err(TraceError::Corrupt(format!(
            "{} trailing bytes after checkpoint end block",
            reader.len()
        )));
    }
    Ok(CheckpointState { spec_fingerprint, rounds, cells })
}

// ---------------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------------

/// A completed adaptive sweep: the report plus allocation provenance (which
/// deliberately lives *outside* the report — an adaptive run at its ceiling
/// must render byte-identically to the legacy fixed-shot report).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// The sweep report, with `spec.adaptive` stripped and per-cell
    /// `scenario.shots` reporting the shots actually allocated.
    pub report: SweepReport,
    /// Allocation rounds the run took (across every session of the run).
    pub rounds: u64,
    /// Total shots allocated across all cells.
    pub shots_allocated: u64,
    /// Cells stopped by reaching the target confidence interval.
    pub converged: usize,
    /// Cells stopped by the shot ceiling.
    pub ceilinged: usize,
}

/// Starts a fresh adaptive sweep in `dir`, writing [`ADAPTIVE_FILE`] first
/// and a [`STATE_FILE`] checkpoint at every round boundary.
///
/// `max_rounds` bounds the rounds executed in **this call**: `Ok(None)` means
/// the run was paused at a round boundary (checkpointed, resumable with
/// [`resume_adaptive`]); `Ok(Some(outcome))` is the completed run. Pass
/// `None` to run to completion.
///
/// # Errors
/// Returns a message when the spec has no (valid) adaptive block, fails to
/// expand, `dir` already holds a checkpoint, or I/O fails.
pub fn run_adaptive(
    spec: &SweepSpec,
    dir: &Path,
    max_rounds: Option<u64>,
) -> Result<Option<AdaptiveOutcome>, String> {
    let adaptive = spec.adaptive.ok_or("spec has no adaptive block")?;
    adaptive.validate()?;
    let scenarios = spec.expand()?;
    if dir.join(ADAPTIVE_FILE).exists() {
        return Err(format!(
            "{} already holds an adaptive checkpoint — resume it with `repro sweep --resume \
             {}` or use a fresh directory",
            dir.display(),
            dir.display()
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let checkpoint = AdaptiveCheckpoint {
        schema_version: ADAPTIVE_SCHEMA_VERSION,
        generator: generator(),
        spec: spec.clone(),
    };
    let json = serde_json::to_string_pretty(&checkpoint).expect("checkpoint serializes");
    std::fs::write(dir.join(ADAPTIVE_FILE), json)
        .map_err(|e| format!("{}: {e}", dir.join(ADAPTIVE_FILE).display()))?;
    let states = vec![MetricsAccumulator::new(); scenarios.len()];
    drive(dir, spec, &scenarios, states, 0, max_rounds)
}

/// Resumes (or re-renders) the adaptive sweep checkpointed in `dir`. With no
/// [`STATE_FILE`] yet (the run died before its first round boundary) the run
/// restarts from round zero — nothing had been reported, so nothing is lost.
/// A *present but damaged* state file is a hard error: resuming must never
/// silently restart a cell from zero.
///
/// `max_rounds` behaves exactly as in [`run_adaptive`]. Resuming an already
/// completed run re-renders the same report (the finalize step is a pure
/// function of the checkpointed state).
///
/// # Errors
/// Returns a message when `dir` holds no checkpoint, the descriptor or state
/// file is corrupt, the state belongs to a different spec, or I/O fails.
pub fn resume_adaptive(
    dir: &Path,
    max_rounds: Option<u64>,
) -> Result<Option<AdaptiveOutcome>, String> {
    let descriptor = dir.join(ADAPTIVE_FILE);
    let text = std::fs::read_to_string(&descriptor).map_err(|e| {
        format!("{}: {e} (not an adaptive checkpoint directory?)", descriptor.display())
    })?;
    let checkpoint: AdaptiveCheckpoint =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", descriptor.display()))?;
    if checkpoint.schema_version != ADAPTIVE_SCHEMA_VERSION {
        return Err(format!(
            "{}: checkpoint schema {} unsupported (this build reads {ADAPTIVE_SCHEMA_VERSION})",
            descriptor.display(),
            checkpoint.schema_version
        ));
    }
    let spec = checkpoint.spec;
    if spec.adaptive.is_none() {
        return Err(format!("{}: checkpointed spec has no adaptive block", descriptor.display()));
    }
    let scenarios = spec.expand()?;
    let (rounds, states) = if dir.join(STATE_FILE).exists() {
        let state = read_checkpoint_state(dir)
            .map_err(|e| format!("{}: {e}", dir.join(STATE_FILE).display()))?;
        if state.spec_fingerprint != spec_fingerprint(&spec) {
            return Err(format!(
                "{}: state fingerprint {:#018x} does not match the checkpointed spec — the \
                 state file belongs to a different run",
                dir.join(STATE_FILE).display(),
                state.spec_fingerprint
            ));
        }
        if state.cells.len() != scenarios.len() {
            return Err(format!(
                "{}: state holds {} cells, the spec expands to {}",
                dir.join(STATE_FILE).display(),
                state.cells.len(),
                scenarios.len()
            ));
        }
        let mut states = Vec::with_capacity(state.cells.len());
        for (tally, scenario) in state.cells.into_iter().zip(&scenarios) {
            if tally.id != scenario.id() {
                return Err(format!(
                    "{}: state cell `{}` does not match expanded cell `{}`",
                    dir.join(STATE_FILE).display(),
                    tally.id,
                    scenario.id()
                ));
            }
            if tally.acc.shots > spec.shots {
                return Err(format!(
                    "{}: cell `{}` claims {} shots, above the ceiling {}",
                    dir.join(STATE_FILE).display(),
                    tally.id,
                    tally.acc.shots,
                    spec.shots
                ));
            }
            states.push(tally.acc);
        }
        (state.rounds, states)
    } else {
        (0, vec![MetricsAccumulator::new(); scenarios.len()])
    };
    drive(dir, &spec, &scenarios, states, rounds, max_rounds)
}

fn generator() -> String {
    format!("repro sweep {}", env!("CARGO_PKG_VERSION"))
}

/// The round loop shared by [`run_adaptive`] and [`resume_adaptive`]. Before
/// each round it recomputes every cell's stopping decision from its tally
/// (the decision is a pure function, so nothing about it needs persisting),
/// allocates one deterministic batch to every still-active cell, and
/// checkpoints the full state at the round boundary.
fn drive(
    dir: &Path,
    spec: &SweepSpec,
    scenarios: &[Scenario],
    mut states: Vec<MetricsAccumulator>,
    mut rounds: u64,
    max_rounds: Option<u64>,
) -> Result<Option<AdaptiveOutcome>, String> {
    let adaptive = spec.adaptive.expect("callers validated the adaptive block");
    let ceiling = spec.shots;
    let fingerprint = spec_fingerprint(spec);
    let hashes: Vec<u64> = scenarios.iter().map(cell_hash).collect();
    let mut engines: Option<Vec<BatchEngine>> = None;
    let mut rounds_this_call = 0u64;
    loop {
        let active: Vec<usize> = (0..scenarios.len())
            .filter(|&i| cell_decision(&states[i], ceiling, &adaptive).is_none())
            .collect();
        if active.is_empty() {
            break;
        }
        if let Some(limit) = max_rounds {
            if rounds_this_call >= limit {
                save_state(dir, fingerprint, rounds, scenarios, &states)?;
                return Ok(None);
            }
        }
        // Engines are built lazily so a resume of an already-finished run
        // never pays for artifact construction; they outlive the round, so
        // every allocation round reuses them.
        if engines.is_none() {
            let mut shared = SharedEngines::default();
            engines = Some(scenarios.iter().map(|s| shared.engine(s)).collect::<Result<_, _>>()?);
        }
        let engines = engines.as_ref().expect("just built");
        for &i in &active {
            let done = states[i].shots as u64;
            let batch = round_batch(spec.seed, hashes[i], rounds, adaptive.initial_batch as u64)
                .min(ceiling as u64 - done);
            for run in engines[i].score_range(done, done + batch) {
                states[i].push(&run);
            }
        }
        rounds += 1;
        rounds_this_call += 1;
        save_state(dir, fingerprint, rounds, scenarios, &states)?;
    }
    // Finalize: a pure function of the checkpointed tallies, so an
    // interrupted run's resumed report and the uninterrupted report are the
    // same bytes.
    let codes: Vec<String> = scenarios.iter().map(|s| s.code.code_name(s.distance)).collect();
    let mut converged = 0usize;
    let mut ceilinged = 0usize;
    let mut shots_allocated = 0u64;
    let cells: Vec<SweepCell> = scenarios
        .iter()
        .zip(&states)
        .zip(&codes)
        .map(|((scenario, acc), code)| {
            match cell_decision(acc, ceiling, &adaptive) {
                Some(StopReason::Converged) => converged += 1,
                Some(StopReason::Ceiling) => ceilinged += 1,
                None => unreachable!("the loop only exits with every cell stopped"),
            }
            shots_allocated += acc.shots as u64;
            SweepCell {
                scenario: Scenario { shots: acc.shots, ..*scenario },
                code: code.clone(),
                metrics: acc.finalize(),
                divergence_profile: None,
                wall_time_ms: 0.0,
            }
        })
        .collect();
    let mut report_spec = spec.clone();
    report_spec.adaptive = None;
    let report = SweepReport {
        schema_version: SWEEP_SCHEMA_VERSION,
        generator: generator(),
        git_describe: git_describe(),
        timing: false,
        recorded_policy: None,
        replay_mode: None,
        spec: report_spec,
        cells,
    };
    Ok(Some(AdaptiveOutcome { report, rounds, shots_allocated, converged, ceilinged }))
}

fn save_state(
    dir: &Path,
    fingerprint: u64,
    rounds: u64,
    scenarios: &[Scenario],
    states: &[MetricsAccumulator],
) -> Result<(), String> {
    let state = CheckpointState {
        spec_fingerprint: fingerprint,
        rounds,
        cells: scenarios
            .iter()
            .zip(states)
            .map(|(scenario, acc)| CellTally { id: scenario.id(), acc: acc.clone() })
            .collect(),
    };
    write_checkpoint_state(dir, &state)
        .map_err(|e| format!("{}: {e}", dir.join(STATE_FILE).display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probit_matches_known_quantiles() {
        // Reference values of Φ⁻¹ to ~1e-6.
        for (p, want) in [
            (0.5, 0.0),
            (0.975, 1.959_964),
            (0.995, 2.575_829),
            (0.841_344_75, 1.0),
            (0.025, -1.959_964),
            (1e-6, -4.753_424),
        ] {
            let got = probit(p);
            assert!((got - want).abs() < 1e-5, "probit({p}) = {got}, want {want}");
        }
        assert!((z_for_confidence(0.95) - 1.959_964).abs() < 1e-5);
    }

    #[test]
    fn wilson_interval_matches_the_textbook_example() {
        // k=10, n=100, z=1.96: interval ≈ (0.0552, 0.1744), center ≈ 0.1148.
        let interval = wilson_interval(10, 100, 1.96);
        assert!((interval.center - 0.114_80).abs() < 1e-4, "{interval:?}");
        assert!((interval.halfwidth - 0.059_57).abs() < 1e-4, "{interval:?}");
        // Zero failures still keeps a non-degenerate upper bound.
        let zero = wilson_interval(0, 100, 1.96);
        assert!(zero.center > 0.0 && zero.halfwidth > 0.0);
        assert!(zero.relative_halfwidth() <= 1.0 + 1e-12);
    }

    #[test]
    fn stopping_rule_needs_failures_and_respects_the_ceiling() {
        let adaptive = AdaptiveSpec::default();
        // No failures: only the ceiling stops the cell.
        assert_eq!(stop_decision(0, 1000, 1000, 2000, &adaptive), None);
        assert_eq!(stop_decision(0, 2000, 2000, 2000, &adaptive), Some(StopReason::Ceiling));
        // Plenty of failures at a huge sample: converged.
        assert_eq!(
            stop_decision(5000, 10_000, 10_000, 1 << 30, &adaptive),
            Some(StopReason::Converged)
        );
        // A loose tally keeps allocating.
        assert_eq!(stop_decision(1, 10, 10, 1 << 30, &adaptive), None);
    }

    #[test]
    fn round_batches_double_and_jitter_deterministically() {
        let (seed, cell) = (11, 0xDEAD_BEEF);
        let r0 = round_batch(seed, cell, 0, 64);
        let r1 = round_batch(seed, cell, 1, 64);
        let r5 = round_batch(seed, cell, 5, 64);
        assert!((64..=72).contains(&r0), "{r0}");
        assert!((128..=144).contains(&r1), "{r1}");
        assert!((2048..=2304).contains(&r5), "{r5}");
        // Pure function: same inputs, same batch; different cells differ
        // somewhere in the schedule.
        assert_eq!(r0, round_batch(seed, cell, 0, 64));
        assert!(
            (0..8).any(|r| round_batch(seed, cell, r, 64) != round_batch(seed, cell + 1, r, 64))
        );
        assert_eq!(round_batch(0, 0, 0, 0), round_batch(0, 0, 0, 1), "zero batch is clamped to 1");
    }

    #[test]
    fn checkpoint_state_round_trips() {
        let dir = std::env::temp_dir().join(format!("qad-roundtrip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut acc = MetricsAccumulator::new();
        acc.push(&crate::metrics::RunMetrics {
            rounds: 4,
            false_positives: 1,
            false_negatives: 2,
            data_lrcs: 3,
            ancilla_lrcs: 4,
            average_dlp: 0.125,
            final_dlp: 0.5,
            dlp_series: vec![0.0, 0.25, 0.125, 0.5],
            total_time_ns: 1234.5,
            lrc_time_ns: 200.0,
            logical_error: Some(true),
        });
        let state = CheckpointState {
            spec_fingerprint: 0xFEED_F00D,
            rounds: 3,
            cells: vec![
                CellTally { id: "surface_d3/x".to_string(), acc: acc.clone() },
                CellTally { id: "surface_d3/y".to_string(), acc: MetricsAccumulator::new() },
            ],
        };
        write_checkpoint_state(&dir, &state).unwrap();
        assert_eq!(read_checkpoint_state(&dir).unwrap(), state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_spec_validation_rejects_bad_parameters() {
        assert!(AdaptiveSpec::default().validate().is_ok());
        let bad = |f: fn(&mut AdaptiveSpec)| {
            let mut spec = AdaptiveSpec::default();
            f(&mut spec);
            spec.validate()
        };
        assert!(bad(|s| s.target_rel_halfwidth = 0.0).is_err());
        assert!(bad(|s| s.target_rel_halfwidth = f64::NAN).is_err());
        assert!(bad(|s| s.confidence = 1.0).is_err());
        assert!(bad(|s| s.confidence = 0.2).is_err());
        assert!(bad(|s| s.initial_batch = 0).is_err());
    }
}
