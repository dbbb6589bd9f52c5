//! Pins every code the four families construct, field by field.
//!
//! One FNV-1a digest covers, for surface and color codes at d = 3, 5, 7, HGP
//! codes at l = 2, 3 and BPC codes at l = 14, 21: the name, the family's
//! display string, the distance and the data-qubit count; every check's id,
//! basis, support (in CNOT order) and position bits; both logical supports;
//! and the bits of every data-qubit position. A change that moves a code on
//! purpose updates the digest and says why in CHANGES.md.
//!
//! A second test lists each family's four smallest valid sizes, checks that
//! [`CodeFamily::validate_size`] accepts exactly those up to the largest, and
//! that [`CodeFamily::build`] returns an instance of its family named by
//! [`CodeFamily::code_name`], the name a corpus manifest is checked against
//! before the code is built.

use qec_codes::{CheckBasis, Code, CodeFamily};

/// 64-bit FNV-1a over little-endian words and string bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        self.bytes(text.as_bytes());
    }

    fn qubits(&mut self, qubits: &[usize]) {
        self.word(qubits.len() as u64);
        for &q in qubits {
            self.word(q as u64);
        }
    }

    fn point(&mut self, (x, y): (f64, f64)) {
        self.word(x.to_bits());
        self.word(y.to_bits());
    }

    fn code(&mut self, code: &Code) {
        self.text(code.name());
        self.text(&code.family().to_string());
        self.word(code.distance() as u64);
        self.word(code.num_data() as u64);
        self.word(code.checks().len() as u64);
        for check in code.checks() {
            self.word(check.id as u64);
            self.word(u64::from(check.basis == CheckBasis::Z));
            self.qubits(&check.support);
            self.point(check.position);
        }
        for logicals in [code.logical_x(), code.logical_z()] {
            self.word(logicals.len() as u64);
            for logical in logicals {
                self.qubits(logical);
            }
        }
        self.word(code.data_positions().len() as u64);
        for &position in code.data_positions() {
            self.point(position);
        }
    }
}

fn codes() -> Vec<Code> {
    let mut codes: Vec<Code> = [3, 5, 7].into_iter().map(Code::rotated_surface).collect();
    codes.extend([3, 5, 7].into_iter().map(Code::color_666));
    codes.extend([2, 3].into_iter().map(Code::hgp));
    codes.extend([14, 21].into_iter().map(Code::bpc));
    codes
}

#[test]
fn every_family_constructs_the_pinned_codes() {
    let mut hash = Fnv::new();
    for code in codes() {
        hash.code(&code);
    }
    assert_eq!(hash.0, 0xf79d_bd8d_0576_d6bd, "family digest: {:#018x}", hash.0);
}

#[test]
fn every_family_builds_the_code_it_names() {
    // Each family's four smallest valid sizes, in `CodeFamily::ALL` order.
    let valid_sizes = [
        (CodeFamily::Surface, [3, 5, 7, 9]),
        (CodeFamily::Color, [3, 5, 7, 9]),
        (CodeFamily::Hgp, [2, 3, 4, 5]),
        (CodeFamily::Bpc, [7, 14, 21, 28]),
    ];
    assert_eq!(valid_sizes.map(|(family, _)| family), CodeFamily::ALL);
    for (family, sizes) in valid_sizes {
        for size in 0..=sizes[3] {
            let valid = family.validate_size(size).is_ok();
            assert_eq!(valid, sizes.contains(&size), "{family} size {size}");
        }
        for size in sizes {
            let code = family.build(size);
            assert_eq!(code.name(), family.code_name(size), "{family} size {size}");
            assert_eq!(code.family(), family, "{family} size {size}");
        }
    }
}
