//! Pins every table of the offline GLADIATOR model, bit for bit.
//!
//! For six calibrations, one FNV-1a digest covers every table
//! [`GladiatorModel::for_code`] builds for eight codes: the width-keyed
//! single- and two-round tables (flags and weight bits) and every site
//! class's own tables (single-round flags and weight bits, two-round flags).
//! The non-leakage weight of the all-zero pattern is left out of both windows:
//! it absorbs the no-fault prior `1 − Σ`, whose summation order is not part of
//! the model.
//!
//! The same loop asserts that the all-zero pattern and the all-zero window are
//! never flagged for any class of any code. A planner that skips quiet data
//! qubits relies on that.

use gladiator::{GladiatorConfig, GladiatorModel, PatternTable, SiteClass};
use qec_codes::Code;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn table(&mut self, table: &PatternTable) {
        self.word(table.width() as u64);
        self.word(table.threshold().to_bits());
        for pattern in 0..1u32 << table.width() {
            self.word(u64::from(table.is_flagged(pattern)));
            self.word(table.leakage_weight(pattern).to_bits());
            if pattern != 0 {
                self.word(table.nonleakage_weight(pattern).to_bits());
            }
        }
    }
}

fn codes() -> Vec<Code> {
    vec![
        Code::rotated_surface(3),
        Code::rotated_surface(5),
        Code::rotated_surface(7),
        Code::color_666(3),
        Code::color_666(5),
        Code::color_666(7),
        Code::hgp(2),
        Code::bpc(14),
    ]
}

/// Digest of every model table under one calibration.
fn model_digest(config: GladiatorConfig) -> u64 {
    let mut hash = Fnv::new();
    for code in codes() {
        let model = GladiatorModel::for_code(&code, config);
        let widths = model.widths();
        for &width in &widths {
            hash.word(width as u64);
            let single = model.single_round_table(width).expect("single-round table per width");
            let double = model.two_round_table(width).expect("two-round table per width");
            assert!(!single.is_flagged(0), "{}: width {width}", code.name());
            assert!(!double.is_flagged(0), "{}: width {width} window", code.name());
            hash.table(single);
            hash.table(double);
        }
        for class in SiteClass::classes_of(&code) {
            assert!(widths.contains(&class.width), "{}: {class:?}", code.name());
            hash.word(class.width as u64);
            hash.word(u64::from(class.detects_x));
            hash.word(u64::from(class.detects_z));
            let table = model.class_table(&class).expect("every class of the code has a table");
            assert!(!table.is_flagged(0), "{}: {class:?}", code.name());
            assert!(!model.classify_two_round_class(&class, 0, 0), "{}: {class:?}", code.name());
            hash.table(table);
            for round2 in 0..1u32 << class.width {
                for round1 in 0..1u32 << class.width {
                    let flagged = model.classify_two_round_class(&class, round1, round2);
                    hash.word(u64::from(flagged));
                }
            }
        }
    }
    hash.0
}

fn check(config: GladiatorConfig, expected: u64) {
    let digest = model_digest(config);
    assert_eq!(digest, expected, "model digest {digest:#018x} for {config:?}");
}

#[test]
fn default_calibration_tables_are_pinned() {
    check(GladiatorConfig::default(), 0x1dea_b85a_9b63_0f1f);
}

#[test]
fn low_error_rate_tables_are_pinned() {
    check(GladiatorConfig::default().with_error_rate(1e-4), 0xd945_28cd_eb75_91ba);
}

#[test]
fn high_error_rate_tables_are_pinned() {
    check(GladiatorConfig::default().with_error_rate(3e-3), 0xf965_a462_3640_f2d7);
}

#[test]
fn low_leakage_ratio_tables_are_pinned() {
    check(GladiatorConfig::default().with_leakage_ratio(0.01), 0x40eb_c40a_0e91_24fb);
}

#[test]
fn unit_leakage_ratio_tables_are_pinned() {
    check(GladiatorConfig::default().with_leakage_ratio(1.0), 0x87e1_8537_c996_77a3);
}

#[test]
fn strict_threshold_tables_are_pinned() {
    check(GladiatorConfig::default().with_threshold(10.0), 0xba14_9a41_9018_b77a);
}
