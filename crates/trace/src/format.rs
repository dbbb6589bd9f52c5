//! The `.qtr` trace schema: header and per-shot frames.
//!
//! A trace file is `TRACE_MAGIC`, then a header block, then one block per shot
//! (in shot order), then an end block carrying the shot count — every block
//! tagged, length-prefixed and CRC-32 checksummed (see [`crate::wire`]).
//!
//! The recorded observables are exactly what a [`LeakagePolicy`] may consult
//! (measurements, MLR heralds, applied LRC schedule) plus the hidden ground
//! truth needed for scoring (leak flags) and decoding (final frames). Derivable
//! fields are *not* stored: detectors are the XOR of consecutive measurement
//! rounds, `data_leak_before` chains from the previous round's
//! `data_leak_after`, and cycle times follow from the noise model's timing
//! parameters — [`ShotTrace::to_run`] reconstructs all of them bit-for-bit.
//!
//! [`LeakagePolicy`]: leaky_sim::LeakagePolicy

use leaky_sim::{LeakagePolicy, NoiseParams, RoundRecord, RunRecord, Simulator};
use qec_codes::{CheckBasis, Code};

use crate::wire::{Decoder, Encoder, TraceError};

/// Version of the `.qtr` schema; bump on any change to the byte layout, and on
/// any change to how the simulator maps its RNG stream to noise events (a
/// trace is only re-simulable by a build with the same mapping).
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Leading magic of every `.qtr` file.
pub const TRACE_MAGIC: [u8; 4] = *b"QTRC";

/// Block tag of the header block (first block after the magic).
pub const BLOCK_HEADER: u8 = 0x01;
/// Block tag of a per-shot block.
pub const BLOCK_SHOT: u8 = 0x02;
/// Block tag of the end block (payload: varint shot count).
pub const BLOCK_END: u8 = 0x03;

/// Stable structural fingerprint of a [`Code`] (FNV-1a over sizes, check bases
/// and supports, and logical supports). Recorded in the header and re-checked
/// on replay so a trace can never silently be replayed against the wrong code.
#[must_use]
pub fn code_fingerprint(code: &Code) -> u64 {
    let mut hash = Fnv::new();
    hash.push(code.num_data() as u64);
    hash.push(code.num_checks() as u64);
    for check in code.checks() {
        hash.push(check.id as u64);
        hash.push(match check.basis {
            CheckBasis::X => 1,
            CheckBasis::Z => 2,
        });
        hash.push(check.support.len() as u64);
        for &q in &check.support {
            hash.push(q as u64);
        }
    }
    for logical in [code.logical_x(), code.logical_z()] {
        hash.push(logical.len() as u64);
        for support in logical {
            hash.push(support.len() as u64);
            for &q in support {
                hash.push(q as u64);
            }
        }
    }
    hash.finish()
}

/// Incremental FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of an arbitrary string (used for corpus cell keys).
#[must_use]
pub fn fnv1a_str(text: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Provenance and execution parameters of one recorded trace.
///
/// Everything a replay needs that is not per-shot lives here: the code identity
/// (name + fingerprint + sizes), the full noise model (bit-exact `f64`s, so
/// reconstructed cycle times and recalibrated policies match the recording run
/// bit-for-bit), the seeding contract fields, and free-form provenance strings.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// [`TRACE_SCHEMA_VERSION`] at recording time.
    pub schema_version: u32,
    /// Tool and version that wrote the trace (e.g. `repro record 0.1.0`).
    pub generator: String,
    /// `git describe --always --dirty` of the recording checkout, or `unknown`.
    pub git_describe: String,
    /// Name of the concrete code instance (e.g. `surface-d5`).
    pub code_name: String,
    /// Structural fingerprint of the code ([`code_fingerprint`]).
    pub code_fingerprint: u64,
    /// Number of data qubits (sizes the bit-packed data flag vectors).
    pub num_data: usize,
    /// Number of checks / parity qubits (sizes the check-indexed vectors).
    pub num_checks: usize,
    /// CNOT layers per round (the maximum check weight; input to cycle times).
    pub cnot_layers: usize,
    /// QEC rounds per shot.
    pub rounds: usize,
    /// Number of recorded shots.
    pub shots: usize,
    /// Base RNG seed of the recording run (shot `i` used `seed + i`).
    pub seed: u64,
    /// Label of the policy that drove the recording run (closed loop).
    pub policy: String,
    /// Whether leakage sampling seeded one leaked data qubit per shot.
    pub leakage_sampling: bool,
    /// The full noise model of the recording run, bit-exact.
    pub noise: NoiseParams,
}

impl TraceHeader {
    /// Encodes the header into a block payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_varint(u64::from(self.schema_version));
        enc.put_str(&self.generator);
        enc.put_str(&self.git_describe);
        enc.put_str(&self.code_name);
        enc.put_varint(self.code_fingerprint);
        enc.put_usize(self.num_data);
        enc.put_usize(self.num_checks);
        enc.put_usize(self.cnot_layers);
        enc.put_usize(self.rounds);
        enc.put_usize(self.shots);
        enc.put_varint(self.seed);
        enc.put_str(&self.policy);
        enc.put_bool(self.leakage_sampling);
        let n = &self.noise;
        for value in [
            n.p,
            n.leakage_ratio,
            n.mlr,
            n.mobility,
            n.lrc_error_factor,
            n.mlr_false_flag,
            n.gate_time_ns,
            n.meas_time_ns,
            n.lrc_time_ns,
        ] {
            enc.put_f64(value);
        }
        enc.put_bool(n.mlr_enabled);
        enc.into_bytes()
    }

    /// Decodes a header block payload.
    ///
    /// # Errors
    /// Fails on truncation, trailing bytes, an unsupported schema version, or a
    /// noise model that [`NoiseParams::validate`] rejects.
    pub fn decode(payload: &[u8]) -> Result<Self, TraceError> {
        let mut dec = Decoder::new(payload);
        let schema_version = u32::try_from(dec.take_varint()?)
            .map_err(|_| TraceError::corrupt("schema version out of range"))?;
        if schema_version != TRACE_SCHEMA_VERSION {
            return Err(TraceError::corrupt(format!(
                "unsupported trace schema version {schema_version} (this build reads {TRACE_SCHEMA_VERSION})"
            )));
        }
        let generator = dec.take_str()?;
        let git_describe = dec.take_str()?;
        let code_name = dec.take_str()?;
        let code_fingerprint = dec.take_varint()?;
        let num_data = dec.take_usize()?;
        let num_checks = dec.take_usize()?;
        let cnot_layers = dec.take_usize()?;
        let rounds = dec.take_usize()?;
        let shots = dec.take_usize()?;
        let seed = dec.take_varint()?;
        let policy = dec.take_str()?;
        let leakage_sampling = dec.take_bool()?;
        let mut floats = [0.0f64; 9];
        for slot in &mut floats {
            *slot = dec.take_f64()?;
        }
        let mlr_enabled = dec.take_bool()?;
        dec.expect_finished()?;
        let [p, leakage_ratio, mlr, mobility, lrc_error_factor, mlr_false_flag, gate_time_ns, meas_time_ns, lrc_time_ns] =
            floats;
        let noise = NoiseParams {
            p,
            leakage_ratio,
            mlr,
            mobility,
            lrc_error_factor,
            mlr_enabled,
            mlr_false_flag,
            gate_time_ns,
            meas_time_ns,
            lrc_time_ns,
        };
        noise.validate().map_err(|e| TraceError::corrupt(format!("noise model: {e}")))?;
        Ok(TraceHeader {
            schema_version,
            generator,
            git_describe,
            code_name,
            code_fingerprint,
            num_data,
            num_checks,
            cnot_layers,
            rounds,
            shots,
            seed,
            policy,
            leakage_sampling,
            noise,
        })
    }
}

/// The stored observables and ground truth of one QEC round.
///
/// See the module docs for what is deliberately *not* stored (detectors,
/// `data_leak_before`, cycle time — all derivable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRound {
    /// Raw parity measurements, indexed by check id.
    pub measurements: Vec<bool>,
    /// MLR leak heralds, indexed by check id.
    pub mlr_leak_flags: Vec<bool>,
    /// Data qubits that received an LRC this round (order preserved).
    pub data_lrcs: Vec<usize>,
    /// Parity qubits that received an LRC this round (order preserved).
    pub ancilla_lrcs: Vec<usize>,
    /// Ground truth: data leak flags at the end of the round.
    pub data_leak_after: Vec<bool>,
    /// Ground truth: ancilla leak flags at the end of the round.
    pub ancilla_leak_after: Vec<bool>,
}

/// One complete recorded shot: initial leak flags, every round, final frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShotTrace {
    /// Shot index within the recording run (RNG seed was `base_seed + shot`).
    pub shot: u64,
    /// Data leak flags the shot started from (non-trivial under leakage sampling).
    pub initial_data_leak: Vec<bool>,
    /// Ancilla leak flags the shot started from.
    pub initial_ancilla_leak: Vec<bool>,
    /// Per-round frames, in execution order.
    pub rounds: Vec<TraceRound>,
    /// Final X frame of every data qubit (after terminal depolarization).
    pub final_data_x: Vec<bool>,
    /// Final Z frame of every data qubit.
    pub final_data_z: Vec<bool>,
    /// The final round of perfect measurements, indexed by check id.
    pub final_perfect_measurements: Vec<bool>,
}

impl ShotTrace {
    /// Runs one shot of `policy` on `sim` and records it as shot `shot`. The
    /// simulator must stand at the start of the shot (fresh, or just through
    /// [`Simulator::reseed_for_shot`]): its leak flags there are the shot's
    /// initial flags.
    pub fn record<P: LeakagePolicy + ?Sized>(
        shot: u64,
        sim: &mut Simulator,
        policy: &mut P,
        rounds: usize,
    ) -> Self {
        let initial_data_leak = sim.frames().data_leak_flags();
        let initial_ancilla_leak = sim.frames().ancilla_leak_flags();
        let run = sim.run_with_policy(policy, rounds);
        ShotTrace::from_run(shot, initial_data_leak, initial_ancilla_leak, run)
    }

    /// The stored projection of a run: moves every stored field out of `run`
    /// and drops the derivable ones. [`ShotTrace::to_run`] is its inverse.
    #[must_use]
    pub fn from_run(
        shot: u64,
        initial_data_leak: Vec<bool>,
        initial_ancilla_leak: Vec<bool>,
        run: RunRecord,
    ) -> Self {
        let rounds = run
            .rounds
            .into_iter()
            .map(|round| TraceRound {
                measurements: round.measurements,
                mlr_leak_flags: round.mlr_leak_flags,
                data_lrcs: round.data_lrcs,
                ancilla_lrcs: round.ancilla_lrcs,
                data_leak_after: round.data_leak_after,
                ancilla_leak_after: round.ancilla_leak_after,
            })
            .collect();
        ShotTrace {
            shot,
            initial_data_leak,
            initial_ancilla_leak,
            rounds,
            final_data_x: run.final_data_x,
            final_data_z: run.final_data_z,
            final_perfect_measurements: run.final_perfect_measurements,
        }
    }

    /// Reconstructs the full [`RunRecord`] of the recorded shot, bit-for-bit
    /// equal to what the live simulator returned: detectors are re-derived by
    /// XORing consecutive measurement rounds, `data_leak_before` chains from
    /// the initial flags through each round's `data_leak_after`, and cycle
    /// times re-apply the recording noise model's timing formula.
    #[must_use]
    pub fn to_run(&self, noise: &NoiseParams, cnot_layers: usize) -> RunRecord {
        let num_checks = self.final_perfect_measurements.len();
        let mut prev_measurements = vec![false; num_checks];
        let mut data_leak_before = self.initial_data_leak.clone();
        let rounds = self
            .rounds
            .iter()
            .enumerate()
            .map(|(round, frame)| {
                let detectors: Vec<bool> = frame
                    .measurements
                    .iter()
                    .zip(&prev_measurements)
                    .map(|(&m, &prev)| m ^ prev)
                    .collect();
                prev_measurements.clone_from(&frame.measurements);
                let lrc_count = frame.data_lrcs.len() + frame.ancilla_lrcs.len();
                let record = RoundRecord {
                    round,
                    measurements: frame.measurements.clone(),
                    detectors,
                    mlr_leak_flags: frame.mlr_leak_flags.clone(),
                    data_lrcs: frame.data_lrcs.clone(),
                    ancilla_lrcs: frame.ancilla_lrcs.clone(),
                    data_leak_before: data_leak_before.clone(),
                    data_leak_after: frame.data_leak_after.clone(),
                    ancilla_leak_after: frame.ancilla_leak_after.clone(),
                    cycle_time_ns: noise.round_ns(cnot_layers, lrc_count),
                };
                data_leak_before.clone_from(&frame.data_leak_after);
                record
            })
            .collect();
        RunRecord {
            rounds,
            final_data_x: self.final_data_x.clone(),
            final_data_z: self.final_data_z.clone(),
            final_perfect_measurements: self.final_perfect_measurements.clone(),
        }
    }

    /// Encodes the shot into a block payload (sizes come from the header).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_varint(self.shot);
        enc.put_bits(&self.initial_data_leak);
        enc.put_bits(&self.initial_ancilla_leak);
        enc.put_usize(self.rounds.len());
        for round in &self.rounds {
            enc.put_bits(&round.measurements);
            enc.put_bits(&round.mlr_leak_flags);
            enc.put_index_seq(&round.data_lrcs);
            enc.put_index_seq(&round.ancilla_lrcs);
            enc.put_bits(&round.data_leak_after);
            enc.put_bits(&round.ancilla_leak_after);
        }
        enc.put_bits(&self.final_data_x);
        enc.put_bits(&self.final_data_z);
        enc.put_bits(&self.final_perfect_measurements);
        enc.into_bytes()
    }

    /// Decodes a shot block payload recorded under `header`.
    ///
    /// # Errors
    /// Fails on truncation, trailing bytes, out-of-range indices, or a round
    /// count that disagrees with the header.
    pub fn decode(payload: &[u8], header: &TraceHeader) -> Result<Self, TraceError> {
        let mut dec = Decoder::new(payload);
        let shot = dec.take_varint()?;
        let initial_data_leak = dec.take_bits(header.num_data)?;
        let initial_ancilla_leak = dec.take_bits(header.num_checks)?;
        let round_count = dec.take_usize()?;
        if round_count != header.rounds {
            return Err(TraceError::corrupt(format!(
                "shot {shot} has {round_count} rounds, header says {}",
                header.rounds
            )));
        }
        let rounds = (0..round_count)
            .map(|_| {
                Ok(TraceRound {
                    measurements: dec.take_bits(header.num_checks)?,
                    mlr_leak_flags: dec.take_bits(header.num_checks)?,
                    data_lrcs: dec.take_index_seq(header.num_data)?,
                    ancilla_lrcs: dec.take_index_seq(header.num_checks)?,
                    data_leak_after: dec.take_bits(header.num_data)?,
                    ancilla_leak_after: dec.take_bits(header.num_checks)?,
                })
            })
            .collect::<Result<Vec<_>, TraceError>>()?;
        let final_data_x = dec.take_bits(header.num_data)?;
        let final_data_z = dec.take_bits(header.num_data)?;
        let final_perfect_measurements = dec.take_bits(header.num_checks)?;
        dec.expect_finished()?;
        Ok(ShotTrace {
            shot,
            initial_data_leak,
            initial_ancilla_leak,
            rounds,
            final_data_x,
            final_data_z,
            final_perfect_measurements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_sim::policy::NeverLrc;

    fn sample_header() -> TraceHeader {
        let code = Code::rotated_surface(3);
        TraceHeader {
            schema_version: TRACE_SCHEMA_VERSION,
            generator: "qec-trace test".to_string(),
            git_describe: "deadbeef".to_string(),
            code_name: code.name().to_string(),
            code_fingerprint: code_fingerprint(&code),
            num_data: code.num_data(),
            num_checks: code.num_checks(),
            cnot_layers: 4,
            rounds: 6,
            shots: 2,
            seed: 11,
            policy: "no-lrc".to_string(),
            leakage_sampling: false,
            noise: NoiseParams::default(),
        }
    }

    fn record_shot(seed: u64, rounds: usize) -> (ShotTrace, RunRecord) {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        let mut sim = Simulator::new(&code, noise, seed);
        let trace = ShotTrace::record(seed, &mut sim, &mut NeverLrc, rounds);
        let run = Simulator::new(&code, noise, seed).run_with_policy(&mut NeverLrc, rounds);
        (trace, run)
    }

    #[test]
    fn header_round_trips_bit_exactly() {
        let header = sample_header();
        let decoded = TraceHeader::decode(&header.encode()).unwrap();
        assert_eq!(decoded, header);
    }

    #[test]
    fn header_rejects_a_future_schema_version() {
        let header = TraceHeader { schema_version: TRACE_SCHEMA_VERSION + 1, ..sample_header() };
        let err = TraceHeader::decode(&header.encode()).unwrap_err();
        assert!(err.to_string().contains("schema version"), "{err}");
    }

    #[test]
    fn recorded_shot_reconstructs_the_run_bit_for_bit() {
        let (trace, run) = record_shot(42, 6);
        let reconstructed = trace.to_run(&NoiseParams::default(), 4);
        assert_eq!(reconstructed, run);
    }

    #[test]
    fn shot_codec_round_trips_through_the_header() {
        let header = sample_header();
        let (trace, _) = record_shot(7, header.rounds);
        let decoded = ShotTrace::decode(&trace.encode(), &header).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn code_fingerprint_distinguishes_codes() {
        let d3 = code_fingerprint(&Code::rotated_surface(3));
        let d5 = code_fingerprint(&Code::rotated_surface(5));
        let color = code_fingerprint(&Code::color_666(3));
        assert_ne!(d3, d5);
        assert_ne!(d3, color);
        assert_eq!(d3, code_fingerprint(&Code::rotated_surface(3)), "fingerprint is stable");
    }
}
