//! Cross-crate property-based tests on the main invariants of the stack.

use gladiator_suite::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The union-find decoder's correction always clears the observed syndrome when the
    /// final round of measurements is perfect.
    #[test]
    fn decoder_correction_clears_the_ideal_syndrome(seed in 0u64..1000, p in 1e-4f64..5e-3) {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder()
            .physical_error_rate(p)
            .leakage_ratio(0.0)
            .mlr_false_flag(0.0)
            .build();
        let mut sim = Simulator::new(&code, noise, seed);
        let run = sim.run_with_policy(&mut leaky_sim_never(), 6);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, 7);
        let decoder = UnionFindDecoder::new(graph);
        let correction = decoder.decode(&detection_events(&run, decoder.graph()));
        // Applying the correction on top of the final frames must silence every Z check.
        let mut frames = run.final_data_x().to_vec();
        for &q in &correction.data_qubits {
            frames[q] = !frames[q];
        }
        for check in code.checks_of(CheckBasis::Z) {
            let parity = check.support.iter().filter(|&&q| frames[q]).count() % 2;
            prop_assert_eq!(parity, 0, "check {} still unsatisfied", check.id);
        }
    }

    /// Simulation is deterministic in the seed and sensitive to it.
    #[test]
    fn simulation_is_seed_deterministic(seed in 0u64..500) {
        let code = Code::color_666(3);
        let noise = NoiseParams::default();
        let run = |s: u64| {
            let mut policy = build_policy(PolicyKind::EraserM, &code, &GladiatorConfig::default());
            Simulator::new(&code, noise, s).run_with_policy(policy.as_mut(), 10)
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// The oracle policy never reports a false positive: every LRC it requests lands on
    /// a genuinely leaked qubit.
    #[test]
    fn oracle_never_fires_spuriously(seed in 0u64..300) {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder().physical_error_rate(1e-3).leakage_ratio(1.0).build();
        let mut policy = build_policy(PolicyKind::Ideal, &code, &GladiatorConfig::default());
        let mut sim = Simulator::new(&code, noise, seed);
        let run = sim.run_with_policy(policy.as_mut(), 30);
        for round in run.rounds() {
            for &q in round.data_lrcs() {
                prop_assert!(round.data_leak_before().get(q), "oracle reset a healthy qubit {q}");
            }
        }
    }

    /// Every policy keeps its LRC requests inside the code's qubit ranges on every code
    /// family (fuzzing the policy/simulator interface).
    #[test]
    fn lrc_requests_are_always_in_range(seed in 0u64..200, policy_idx in 0usize..11) {
        let kind = PolicyKind::ALL[policy_idx];
        let code = Code::bpc(14);
        let noise = NoiseParams::builder().physical_error_rate(2e-3).leakage_ratio(1.0).build();
        let mut policy = build_policy(kind, &code, &GladiatorConfig::default());
        let mut sim = Simulator::new(&code, noise, seed);
        let run = sim.run_with_policy(policy.as_mut(), 8);
        for round in run.rounds() {
            for &q in round.data_lrcs() {
                prop_assert!(q < code.num_data());
            }
            for &c in round.ancilla_lrcs() {
                prop_assert!(c < code.num_checks());
            }
        }
    }
}

/// Helper: the NO-LRC policy from the sim crate (not re-exported through the prelude).
fn leaky_sim_never() -> impl LeakagePolicy {
    leaky_sim::policy::NeverLrc
}

use gladiator_suite::sim as leaky_sim;

// ---------------------------------------------------------------------------------
// Vendored serde_json: string escapes and number classification (the JSON layer
// every sweep spec, manifest and report round-trips through).
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Non-negative integers always classify as `Value::U64`, exactly.
    #[test]
    fn json_unsigned_integers_classify_as_u64(n in any::<u64>()) {
        let value = serde_json::value_from_str(&n.to_string()).unwrap();
        prop_assert_eq!(value, serde_json::Value::U64(n));
    }

    /// Negative integers always classify as `Value::I64`, exactly.
    #[test]
    fn json_negative_integers_classify_as_i64(n in any::<u64>()) {
        // The modulus spans [-2^63, -1]: i64::MIN, whose magnitude has no
        // positive i64, is the classification edge case and must be included.
        let v = -1 - (n % (1u64 << 63)) as i64;
        let value = serde_json::value_from_str(&v.to_string()).unwrap();
        prop_assert_eq!(value, serde_json::Value::I64(v));
    }

    /// The i64::MIN boundary explicitly: magnitude 2^63 parses as an integer,
    /// magnitude 2^63 + 1 falls through to f64 (like real serde_json).
    #[test]
    fn json_i64_min_boundary_classifies_exactly(_n in 0u64..2) {
        let min = serde_json::value_from_str("-9223372036854775808").unwrap();
        prop_assert_eq!(min, serde_json::Value::I64(i64::MIN));
        let below = serde_json::value_from_str("-9223372036854775809").unwrap();
        prop_assert!(matches!(below, serde_json::Value::F64(_)));
    }

    /// Any finite f64 survives render -> parse bit-exactly (incl. -0.0 and
    /// subnormals), regardless of which number class the text lands in.
    #[test]
    fn json_finite_floats_round_trip_bit_exactly(bits in any::<u64>()) {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            let json = serde_json::to_string(&x).unwrap();
            let back: f64 = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back.to_bits(), bits, "{}", json);
        }
    }

    /// Number texts with a fraction or exponent always classify as `F64`,
    /// never silently as an integer.
    #[test]
    fn json_exponent_texts_classify_as_f64(mantissa in 0u64..1_000_000, exp in 0u32..20) {
        let text = format!("{mantissa}e-{exp}");
        let value = serde_json::value_from_str(&text).unwrap();
        match value {
            serde_json::Value::F64(x) => {
                prop_assert_eq!(x.to_bits(), text.parse::<f64>().unwrap().to_bits())
            }
            other => prop_assert!(false, "`{}` classified as {:?}", text, other),
        }
    }

    /// Strings of arbitrary scalar values — control characters, quotes,
    /// backslashes, non-BMP code points — survive escape -> parse round trips.
    #[test]
    fn json_string_escapes_round_trip(seed in any::<u64>(), len in 0usize..24) {
        let mut state = seed;
        let mut text = String::new();
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let choice = (state >> 33) as u32;
            let c = match choice % 6 {
                0 => char::from_u32(choice % 0x20).unwrap(),          // control chars
                1 => ['"', '\\', '/', '\n', '\t'][(choice % 5) as usize],
                2 => char::from_u32(0x1F300 + choice % 0x100).unwrap(), // non-BMP (emoji block)
                3 => char::from_u32(0x80 + choice % 0x780).unwrap(),    // Latin-1..Greek
                _ => char::from_u32(b'a' as u32 + choice % 26).unwrap(),
            };
            text.push(c);
        }
        let json = serde_json::to_string(text.as_str()).unwrap();
        let back: String = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, text, "json was {}", json);
    }

    /// `\uXXXX` surrogate pairs parse to the intended non-BMP scalar.
    #[test]
    fn json_surrogate_pair_escapes_parse(offset in 0u32..0x10000) {
        let scalar = 0x10000 + offset; // every value here is a valid char
        let c = char::from_u32(scalar).unwrap();
        let v = scalar - 0x10000;
        let json = format!("\"\\u{:04x}\\u{:04x}\"", 0xD800 + (v >> 10), 0xDC00 + (v & 0x3FF));
        let back: String = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, c.to_string());
        // An unpaired high surrogate must be rejected, not mangled.
        let broken = format!("\"\\u{:04x}x\"", 0xD800 + (v >> 10));
        prop_assert!(serde_json::from_str::<String>(&broken).is_err());
    }
}
