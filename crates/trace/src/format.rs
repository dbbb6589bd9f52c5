//! The `.qtr` trace schema: header and per-shot frames.
//!
//! A trace file is `TRACE_MAGIC`, then a header block, then one block per shot
//! (in shot order), then an end block carrying the shot count — every block
//! tagged, length-prefixed and CRC-32 checksummed (see [`crate::wire`]).
//!
//! A [`ShotTrace`] holds the simulator's own [`RunRecord`] of the shot. Its
//! block stores exactly what a [`LeakagePolicy`] may consult (measurements,
//! MLR heralds, applied LRC schedule) plus the hidden ground truth needed for
//! scoring (leak flags) and decoding (final frames). Derivable fields are
//! *not* stored: [`ShotTrace::decode`] derives them once, as the shot is read
//! — detectors are the XOR of consecutive measurement rounds and
//! `data_leak_before` a copy of the previous round's `data_leak_after`, both a
//! word at a time, and cycle times follow from the header's noise model —
//! bit-for-bit what the live simulator returned. Flag vectors move between the
//! run's packed words and the payload's bytes whole ([`crate::wire`]).
//!
//! [`LeakagePolicy`]: leaky_sim::LeakagePolicy

use leaky_sim::{BitVec, LeakagePolicy, NoiseParams, RunRecord, Simulator};
use qec_codes::{CheckBasis, Code};

use crate::wire::{Decoder, Encoder, PackedBits, TraceError, MAX_BLOCK_LEN};

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

    /// The largest shot block payload this header's sizes can encode: each
    /// varint at 10 bytes, each LRC index sequence at its bound's entries and
    /// each flag vector at `ceil(n / 8)` bytes, capped at [`MAX_BLOCK_LEN`].
    /// The reader refuses any longer block before reading its payload.
    #[must_use]
    pub fn max_shot_block_len(&self) -> usize {
        const VARINT: usize = 10;
        let (data_bits, check_bits) = (self.num_data.div_ceil(8), self.num_checks.div_ceil(8));
        let index_seq = |bound: usize| bound.checked_add(1)?.checked_mul(VARINT);
        let sum = |parts: &[Option<usize>]| {
            parts.iter().try_fold(0usize, |total, &part| total.checked_add(part?))
        };
        let round = sum(&[
            Some(data_bits),
            check_bits.checked_mul(3),
            index_seq(self.num_data),
            index_seq(self.num_checks),
        ]);
        let rounds = round.and_then(|round| round.checked_mul(self.rounds));
        sum(&[Some(2 * VARINT), data_bits.checked_mul(3), check_bits.checked_mul(2), rounds])
            .map_or(MAX_BLOCK_LEN, |len| len.min(MAX_BLOCK_LEN))
    }

    /// The shortest shot block payload this header's sizes can encode: each
    /// varint at one byte, every LRC index sequence empty and each flag vector
    /// at `ceil(n / 8)` bytes; `None` past `usize`. A decoder that checks a
    /// payload against it allocates in proportion to the payload, whatever
    /// sizes the header declares.
    fn min_shot_block_len(&self) -> Option<usize> {
        let (data_bits, check_bits) = (self.num_data.div_ceil(8), self.num_checks.div_ceil(8));
        let round = check_bits.checked_mul(3)?.checked_add(data_bits)?.checked_add(2)?;
        let finals = data_bits.checked_mul(3)?.checked_add(check_bits.checked_mul(2)?)?;
        round.checked_mul(self.rounds)?.checked_add(finals)?.checked_add(2)
    }
}

/// One complete recorded shot: the leak flags it started from and the
/// simulator's own record of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotTrace {
    /// Shot index within the recording run (RNG seed was `base_seed + shot`).
    pub shot: u64,
    /// Data leak flags the shot started from (non-trivial under leakage sampling).
    pub initial_data_leak: BitVec,
    /// Ancilla leak flags the shot started from.
    pub initial_ancilla_leak: BitVec,
    /// The recorded run, bit-for-bit what the live simulator returned.
    pub run: RunRecord,
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
        let initial_data_leak = BitVec::from(sim.frames().data_leaks());
        let initial_ancilla_leak = BitVec::from(sim.frames().ancilla_leaks());
        let run = sim.run_with_policy(policy, rounds);
        ShotTrace { shot, initial_data_leak, initial_ancilla_leak, run }
    }

    /// Encodes the stored fields of the shot into a block payload (sizes come
    /// from the header; the derivable fields are dropped).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_varint(self.shot);
        enc.put_bits(self.initial_data_leak.as_bits());
        enc.put_bits(self.initial_ancilla_leak.as_bits());
        enc.put_usize(self.run.num_rounds());
        for round in self.run.rounds() {
            enc.put_bits(round.measurements());
            enc.put_bits(round.mlr_leak_flags());
            enc.put_index_seq(round.data_lrcs());
            enc.put_index_seq(round.ancilla_lrcs());
            enc.put_bits(round.data_leak_after());
            enc.put_bits(round.ancilla_leak_after());
        }
        enc.put_bits(self.run.final_data_x());
        enc.put_bits(self.run.final_data_z());
        enc.put_bits(self.run.final_perfect_measurements());
        enc.into_bytes()
    }

    /// Decodes a shot block payload recorded under `header`, deriving each
    /// round's index (its position), detectors (this round's measurements XOR
    /// the previous round's), `data_leak_before` (the initial flags, then the
    /// previous round's `data_leak_after`) and cycle time (the header's noise
    /// model over its CNOT layers and the round's LRCs).
    ///
    /// # Errors
    /// Fails on truncation, trailing bytes, out-of-range indices, a payload
    /// shorter than the header's sizes allow, or a round count that disagrees
    /// with the header.
    pub fn decode(payload: &[u8], header: &TraceHeader) -> Result<Self, TraceError> {
        let (num_data, num_checks) = (header.num_data, header.num_checks);
        let mut dec = Decoder::new(payload);
        let shot = dec.take_varint()?;
        let initial_data = dec.take_bits(num_data)?;
        let initial_ancilla = dec.take_bits(num_checks)?;
        let round_count = dec.take_usize()?;
        if round_count != header.rounds {
            return Err(TraceError::corrupt(format!(
                "shot {shot} has {round_count} rounds, header says {}",
                header.rounds
            )));
        }
        if header.min_shot_block_len().map_or(true, |least| payload.len() < least) {
            return Err(TraceError::corrupt(format!(
                "shot {shot}: a {}-byte block cannot hold {round_count} rounds of {num_data} \
                 data qubits and {num_checks} checks",
                payload.len()
            )));
        }
        let mut initial_data_leak = BitVec::new(num_data);
        initial_data.unpack_into(&mut initial_data_leak.as_bits_mut());
        let mut initial_ancilla_leak = BitVec::new(num_checks);
        initial_ancilla.unpack_into(&mut initial_ancilla_leak.as_bits_mut());
        let mut run = RunRecord::with_capacity(num_data, num_checks, round_count);
        // What the next round derives from: the stored data leaks after the
        // previous round (the initial flags before round 0) and the previous
        // round's measurements (none before round 0).
        let mut previous_after = initial_data;
        let mut previous_measurements: Option<PackedBits<'_>> = None;
        for _ in 0..round_count {
            let measurements = dec.take_bits(num_checks)?;
            let mlr_leak_flags = dec.take_bits(num_checks)?;
            let data_lrcs = dec.take_index_seq(num_data)?;
            let ancilla_lrcs = dec.take_index_seq(num_checks)?;
            let data_leak_after = dec.take_bits(num_data)?;
            let ancilla_leak_after = dec.take_bits(num_checks)?;
            let lrcs = data_lrcs.len() + ancilla_lrcs.len();
            let cycle_time_ns = header.noise.round_ns(header.cnot_layers, lrcs);
            let mut flags = run.push_round(&data_lrcs, &ancilla_lrcs, cycle_time_ns);
            measurements.unpack_into(&mut flags.measurements);
            mlr_leak_flags.unpack_into(&mut flags.mlr_leak_flags);
            data_leak_after.unpack_into(&mut flags.data_leak_after);
            ancilla_leak_after.unpack_into(&mut flags.ancilla_leak_after);
            previous_after.unpack_into(&mut flags.data_leak_before);
            if let Some(previous) = previous_measurements {
                previous.unpack_into(&mut flags.detectors);
            }
            let measured = flags.measurements.as_bits().words();
            for (detector, &now) in flags.detectors.words_mut().iter_mut().zip(measured) {
                *detector ^= now;
            }
            previous_after = data_leak_after;
            previous_measurements = Some(measurements);
        }
        let mut finals = run.finals_mut();
        dec.take_bits(num_data)?.unpack_into(&mut finals.final_data_x);
        dec.take_bits(num_data)?.unpack_into(&mut finals.final_data_z);
        dec.take_bits(num_checks)?.unpack_into(&mut finals.final_perfect_measurements);
        dec.expect_finished()?;
        Ok(ShotTrace { shot, initial_data_leak, initial_ancilla_leak, run })
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

    fn record_shot(seed: u64, rounds: usize) -> ShotTrace {
        let mut sim = Simulator::new(&Code::rotated_surface(3), NoiseParams::default(), seed);
        ShotTrace::record(seed, &mut sim, &mut NeverLrc, rounds)
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
        // Noisy and seeded with a leak, so detectors fire and leak flags
        // chain between rounds from a non-trivial start.
        let noise = NoiseParams::builder().physical_error_rate(0.05).leakage_ratio(1.0).build();
        let header = TraceHeader { noise, ..sample_header() };
        let code = Code::rotated_surface(3);
        let start = || {
            let mut sim = Simulator::new(&code, noise, 42);
            sim.seed_random_data_leakage(1);
            sim
        };
        let trace = ShotTrace::record(42, &mut start(), &mut NeverLrc, header.rounds);
        let run = start().run_with_policy(&mut NeverLrc, header.rounds);
        assert!(trace.initial_data_leak.any());
        assert!(run.rounds().iter().any(|round| round.detectors().count_ones() > 1));
        let decoded = ShotTrace::decode(&trace.encode(), &header).unwrap();
        assert_eq!(decoded.run, run);
    }

    #[test]
    fn shot_codec_round_trips_through_the_header() {
        let header = sample_header();
        let trace = record_shot(7, header.rounds);
        let decoded = ShotTrace::decode(&trace.encode(), &header).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn shot_block_bound_follows_the_layout_and_saturates() {
        let header = TraceHeader { rounds: 3, ..sample_header() };
        // 9 data qubits and 8 checks: two varints, three 2-byte data and two
        // 1-byte check flag vectors, and per round 2 + 3 flag bytes plus
        // 10 + 9 varints of LRC indices.
        assert_eq!(header.max_shot_block_len(), 20 + 6 + 2 + 3 * (5 + 190));
        let trace = record_shot(7, header.rounds);
        assert!(trace.encode().len() <= header.max_shot_block_len());
        for overflowing in [
            TraceHeader { rounds: usize::MAX, ..sample_header() },
            TraceHeader { num_data: usize::MAX, ..sample_header() },
            TraceHeader { num_checks: usize::MAX / 3, ..sample_header() },
        ] {
            assert_eq!(overflowing.max_shot_block_len(), MAX_BLOCK_LEN);
        }
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
