//! Property-based round-trip coverage of the `.qtr` wire primitives, and a
//! shot round trip on a code whose flag vectors span several words.

use leaky_sim::{BitVec, NoiseParams, Simulator};
use proptest::prelude::*;
use qec_codes::Code;
use qec_trace::wire::{crc32, Decoder, Encoder};
use qec_trace::{code_fingerprint, ShotTrace, TraceHeader, TRACE_SCHEMA_VERSION};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every u64 survives a varint round trip, and the encoding is minimal
    /// (ceil(bits/7) bytes).
    #[test]
    fn varint_round_trips_any_u64(value in any::<u64>()) {
        let mut enc = Encoder::new();
        enc.put_varint(value);
        let bytes = enc.into_bytes();
        let expected_len = if value == 0 { 1 } else { (64 - value.leading_zeros() as usize).div_ceil(7) };
        prop_assert_eq!(bytes.len(), expected_len);
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(dec.take_varint().unwrap(), value);
        prop_assert!(dec.finished());
    }

    /// Packed flag vectors of any length up to five words round trip
    /// exactly through the word-level codec: flag `i` is bit `i % 8` of byte
    /// `i / 8`, and a set padding bit in the last byte is refused.
    #[test]
    fn bitpack_round_trips_any_length(len in 0usize..300, seed in any::<u64>()) {
        let flags: Vec<bool> =
            (0..len).map(|i| (seed.rotate_left(i as u32 / 64) >> (i % 64)) & 1 == 1).collect();
        let bits: BitVec = flags.iter().copied().collect();
        let mut enc = Encoder::new();
        enc.put_bits(bits.as_bits());
        let mut bytes = enc.into_bytes();
        prop_assert_eq!(bytes.len(), len.div_ceil(8));
        for (i, &flag) in flags.iter().enumerate() {
            prop_assert_eq!(bytes[i / 8] >> (i % 8) & 1 == 1, flag);
        }
        let mut decoded = BitVec::new(len);
        Decoder::new(&bytes).take_bits(len).unwrap().unpack_into(&mut decoded.as_bits_mut());
        prop_assert_eq!(&decoded, &bits);
        if len % 8 != 0 {
            *bytes.last_mut().unwrap() |= 0x80;
            prop_assert!(Decoder::new(&bytes).take_bits(len).is_err());
        }
    }

    /// f64 payloads are bit-exact, including negative zero and subnormals.
    #[test]
    fn f64_round_trips_bit_exactly(bits in any::<u64>()) {
        let value = f64::from_bits(bits);
        let mut enc = Encoder::new();
        enc.put_f64(value);
        let bytes = enc.into_bytes();
        prop_assert_eq!(Decoder::new(&bytes).take_f64().unwrap().to_bits(), bits);
    }

    /// Mixed sequences of varints, strings and index lists decode in order.
    #[test]
    fn mixed_payloads_round_trip(a in any::<u64>(), n in 0usize..20, bound in 21usize..100) {
        let indices: Vec<usize> = (0..n).map(|i| (a as usize).wrapping_add(7 * i) % bound).collect();
        let text = format!("cell-{a}");
        let mut enc = Encoder::new();
        enc.put_varint(a);
        enc.put_str(&text);
        enc.put_index_seq(&indices);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(dec.take_varint().unwrap(), a);
        prop_assert_eq!(dec.take_str().unwrap(), text);
        prop_assert_eq!(dec.take_index_seq(bound).unwrap(), indices);
        dec.expect_finished().unwrap();
    }

    /// Single-bit corruption of a payload always changes its CRC-32.
    #[test]
    fn crc_detects_single_bit_flips(seed in any::<u64>(), len in 1usize..64, flip in 0usize..512) {
        let bytes: Vec<u8> = (0..len).map(|i| (seed.wrapping_mul(i as u64 + 1) >> 32) as u8).collect();
        let mut damaged = bytes.clone();
        let bit = flip % (len * 8);
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc32(&bytes), crc32(&damaged));
    }
}

/// A recorded shot on hgp l=3 (225 data qubits and 216 checks: four words per
/// flag vector, and a part-filled last byte) decodes back to the live run.
#[test]
fn a_multi_word_shot_round_trips_through_the_codec() {
    let code = Code::hgp(3);
    assert_eq!((code.num_data(), code.num_checks()), (225, 216));
    let noise = NoiseParams::builder().physical_error_rate(5e-3).leakage_ratio(1.0).build();
    let rounds = 6;
    let header = TraceHeader {
        schema_version: TRACE_SCHEMA_VERSION,
        generator: "roundtrip test".to_string(),
        git_describe: "unknown".to_string(),
        code_name: code.name().to_string(),
        code_fingerprint: code_fingerprint(&code),
        num_data: code.num_data(),
        num_checks: code.num_checks(),
        cnot_layers: code.cnot_layers(),
        rounds,
        shots: 1,
        seed: 3,
        policy: "always-lrc".to_string(),
        leakage_sampling: true,
        noise,
    };
    let start = || {
        let mut sim = Simulator::new(&code, noise, 0);
        sim.reseed_for_shot(header.seed, 0, true);
        sim
    };
    let mut policy = leakage_speculation::build_policy(
        leakage_speculation::PolicyKind::AlwaysLrc,
        &code,
        &gladiator::GladiatorConfig::default(),
    );
    let trace = ShotTrace::record(0, &mut start(), policy.as_mut(), rounds);
    policy.reset();
    let live = start().run_with_policy(policy.as_mut(), rounds);
    // Flags set in every word of both check- and data-indexed vectors.
    let last = live.round(rounds - 1);
    assert!(last.measurements().words().iter().all(|&word| word != 0));
    assert!(live.final_data_x().words().iter().all(|&word| word != 0));
    assert!(trace.initial_data_leak.any());

    let payload = trace.encode();
    assert!(payload.len() <= header.max_shot_block_len());
    let decoded = ShotTrace::decode(&payload, &header).unwrap();
    assert_eq!(decoded.run, live);
    assert_eq!(decoded, trace);
}
