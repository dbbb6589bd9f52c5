//! Balanced-product cyclic (BPC) stand-in: two-block circulant CSS codes.
//!
//! The paper evaluates GLADIATOR on "balanced product cyclic (BPC)" codes from the
//! QUITS circuit generator. We reproduce the family with its simplest representative:
//! a two-block circulant (group-algebra) code over the cyclic group `Z_ℓ`,
//!
//! ```text
//! Hx = [ A | B ],      Hz = [ Bᵀ | Aᵀ ],
//! ```
//!
//! where `A = a(x)` and `B = b(x)` are circulant matrices generated by sparse
//! polynomials. Circulants commute, so `Hx·Hzᵀ = A·B + B·A = 0 (mod 2)` and the code is
//! CSS by construction. The number of logical qubits is `2·deg gcd(a, b, xˡ−1)`.
//!
//! Our default polynomials are `a(x) = 1 + x + x³` and `b(x) = 1 + x⁴ + x⁵ = a(x)·(1 +
//! x + x²) mod 2`, which share the factor `a(x)` itself; for `ℓ` a multiple of 7 the
//! factor divides `xˡ − 1`, giving `k = 6` logical qubits, weight-6 checks and
//! data-qubit degree 6 — the same sparse, irregular syndrome regime (7-bit speculation
//! patterns, Appendix B.2) as the paper's BPC code.

use crate::code::{Code, CodeFamily};
use crate::linalg::BinaryMatrix;

/// Builds the `ℓ×ℓ` circulant matrix whose first row has ones at the given shifts.
#[must_use]
pub fn circulant(l: usize, shifts: &[usize]) -> BinaryMatrix {
    let mut m = BinaryMatrix::zeros(l, l);
    for r in 0..l {
        for &s in shifts {
            m.set(r, (r + s) % l, true);
        }
    }
    m
}

impl Code {
    /// Builds a two-block circulant code from explicit polynomial supports.
    ///
    /// `a_shifts` and `b_shifts` are the exponents with non-zero coefficients in
    /// `a(x)` and `b(x)`.
    ///
    /// # Panics
    /// Panics if `l == 0` or a shift is `>= l`, or if the construction produces
    /// non-commuting stabilizers (impossible for well-formed inputs).
    #[must_use]
    pub fn bpc_from_polynomials(
        l: usize,
        a_shifts: &[usize],
        b_shifts: &[usize],
        design_distance: usize,
        name: impl Into<String>,
    ) -> Code {
        assert!(l > 0, "cyclic group size must be positive");
        assert!(
            a_shifts.iter().chain(b_shifts.iter()).all(|&s| s < l),
            "polynomial shifts must be smaller than l"
        );
        let a = circulant(l, a_shifts);
        let b = circulant(l, b_shifts);
        let hx = a.hstack(&b);
        let hz = b.transposed().hstack(&a.transposed());
        Code::from_css_matrices(CodeFamily::Bpc, name.into(), design_distance, &hx, &hz)
    }

    /// Builds the default BPC stand-in of cyclic size `l` (must be a positive multiple
    /// of 7 so that the shared polynomial factor divides `xˡ − 1`).
    ///
    /// # Panics
    /// Panics if `l` is not a positive multiple of 7.
    #[must_use]
    pub fn bpc(l: usize) -> Code {
        let name = CodeFamily::Bpc.checked_name(l);
        Code::bpc_from_polynomials(l, &[0, 1, 3], &[0, 4, 5], 4, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CheckBasis;

    #[test]
    fn circulant_has_uniform_row_weight() {
        let c = circulant(9, &[0, 2, 5]);
        for r in 0..9 {
            assert_eq!(c.row_weight(r), 3);
        }
    }

    #[test]
    fn bpc_counts_and_commutation() {
        let code = Code::bpc(21);
        assert_eq!(code.num_data(), 42);
        assert_eq!(code.checks_of(CheckBasis::X).count(), 21);
        assert_eq!(code.checks_of(CheckBasis::Z).count(), 21);
        assert!(code.stabilizers_commute());
    }

    #[test]
    fn bpc_default_encodes_six_logical_qubits() {
        // gcd(a, b, x^l - 1) = 1 + x + x^3 has degree 3, so k = 2*3 = 6.
        let code = Code::bpc(21);
        assert_eq!(code.num_logical(), 6);
    }

    #[test]
    fn bpc_checks_have_weight_six() {
        let code = Code::bpc(14);
        for check in code.checks() {
            assert_eq!(check.weight(), 6);
        }
    }

    #[test]
    fn bpc_data_degree_is_six() {
        let code = Code::bpc(21);
        for q in 0..code.num_data() {
            assert_eq!(code.checks().iter().filter(|c| c.support.contains(&q)).count(), 6);
        }
    }

    #[test]
    fn custom_polynomials_with_trivial_gcd_encode_nothing() {
        // a = 1+x, b = 1 (unit): gcd with x^l - 1 relevant to both blocks is trivial,
        // so the code encodes zero logical qubits but must still be valid CSS.
        let code = Code::bpc_from_polynomials(8, &[0], &[0], 1, "bpc-trivial");
        assert!(code.stabilizers_commute());
        assert_eq!(code.num_logical(), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of 7")]
    fn non_multiple_of_seven_is_rejected() {
        let _ = Code::bpc(10);
    }
}
