//! Hypergraph-product (HGP) codes.
//!
//! The hypergraph product of two classical parity-check matrices `H1 (r1×n1)` and
//! `H2 (r2×n2)` is the CSS code with
//!
//! ```text
//! Hx = [ H1 ⊗ I_n2 | I_r1 ⊗ H2ᵀ ]        (r1·n2 checks)
//! Hz = [ I_n1 ⊗ H2 | H1ᵀ ⊗ I_r2 ]        (n1·r2 checks)
//! ```
//!
//! over `n1·n2 + r1·r2` data qubits. `Hx·Hzᵀ = H1⊗H2ᵀ + H1⊗H2ᵀ = 0 (mod 2)`, so the
//! stabilizers commute by construction. The paper evaluates leakage speculation on HGP
//! codes because their irregular, sparse syndrome connectivity breaks ERASER's
//! surface-code heuristic (Section 3.3, Table 5).
//!
//! As a deterministic seed we use a `(3,4)`-regular quasi-cyclic LDPC code built from a
//! `3×4` protograph of `ℓ×ℓ` circulant permutation matrices with shifts `i·j mod ℓ`;
//! `ℓ = 5` gives a `[[625, 53]]` HGP code with the same degree profile as the HGP
//! codes used in the paper's qLDPC evaluation.

use crate::code::{Code, CodeFamily};
use crate::linalg::BinaryMatrix;

/// A circulant permutation matrix of size `l` shifted by `s`: entry `(r, (r+s) mod l)`.
fn circulant_permutation(l: usize, s: usize) -> BinaryMatrix {
    let mut m = BinaryMatrix::zeros(l, l);
    for r in 0..l {
        m.set(r, (r + s) % l, true);
    }
    m
}

/// Builds the deterministic `(3,4)`-regular quasi-cyclic LDPC parity-check matrix with
/// circulant size `l`: a `3×4` array of circulant permutations with shift `i·j mod l`.
#[must_use]
pub fn quasi_cyclic_ldpc(l: usize) -> BinaryMatrix {
    assert!(l >= 2, "circulant size must be at least 2");
    let mut h = BinaryMatrix::zeros(3 * l, 4 * l);
    for i in 0..3 {
        for j in 0..4 {
            let block = circulant_permutation(l, (i * j) % l);
            for r in 0..l {
                for c in 0..l {
                    if block.get(r, c) {
                        h.set(i * l + r, j * l + c, true);
                    }
                }
            }
        }
    }
    h
}

impl Code {
    /// Builds the hypergraph product of two explicit classical parity-check matrices.
    ///
    /// The `design_distance` is recorded as the code's nominal distance (HGP distance
    /// equals the minimum distance of the seed codes and their transposes; we do not
    /// recompute it).
    ///
    /// # Panics
    /// Panics if the resulting X and Z stabilizers do not commute, which can only
    /// happen if the inputs are malformed (e.g. inconsistent dimensions).
    #[must_use]
    pub fn hgp_from_seeds(
        h1: &BinaryMatrix,
        h2: &BinaryMatrix,
        design_distance: usize,
        name: impl Into<String>,
    ) -> Code {
        let (r1, n1) = (h1.rows(), h1.cols());
        let (r2, n2) = (h2.rows(), h2.cols());
        let i_n1 = BinaryMatrix::identity(n1);
        let i_n2 = BinaryMatrix::identity(n2);
        let i_r1 = BinaryMatrix::identity(r1);
        let i_r2 = BinaryMatrix::identity(r2);

        let hx = h1.kron(&i_n2).hstack(&i_r1.kron(&h2.transposed()));
        let hz = i_n1.kron(h2).hstack(&h1.transposed().kron(&i_r2));
        Code::from_css_matrices(CodeFamily::Hgp, name.into(), design_distance, &hx, &hz)
    }

    /// Builds the standard HGP code used in the evaluation: the hypergraph product of
    /// the deterministic `(3,4)` quasi-cyclic LDPC code of circulant size `l` with
    /// itself. `l = 5` gives a `[[625, 53]]` code with the weight/degree profile of the
    /// HGP codes used in qLDPC studies; smaller `l` gives proportionally smaller codes
    /// for quick tests.
    ///
    /// # Panics
    /// Panics if `l < 2`.
    #[must_use]
    pub fn hgp(l: usize) -> Code {
        let name = CodeFamily::Hgp.checked_name(l);
        let h = quasi_cyclic_ldpc(l);
        Code::hgp_from_seeds(&h, &h, 4, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CheckBasis;

    #[test]
    fn quasi_cyclic_seed_is_3_4_regular() {
        let h = quasi_cyclic_ldpc(5);
        assert_eq!(h.rows(), 15);
        assert_eq!(h.cols(), 20);
        for r in 0..h.rows() {
            assert_eq!(h.row_weight(r), 4, "row {r}");
        }
        let ht = h.transposed();
        for c in 0..ht.rows() {
            assert_eq!(ht.row_weight(c), 3, "column {c}");
        }
    }

    #[test]
    fn hgp_sizes_match_formula() {
        let l = 3;
        let code = Code::hgp(l);
        let (n1, r1) = (4 * l, 3 * l);
        assert_eq!(code.num_data(), n1 * n1 + r1 * r1);
        assert_eq!(code.checks_of(CheckBasis::X).count(), r1 * n1);
        assert_eq!(code.checks_of(CheckBasis::Z).count(), n1 * r1);
    }

    #[test]
    fn hgp_stabilizers_commute_and_encode_logical_qubits() {
        let code = Code::hgp(2);
        assert!(code.stabilizers_commute());
        assert!(code.num_logical() > 0, "HGP code must encode at least one logical qubit");
    }

    #[test]
    fn hgp_625_has_53_logical_qubits() {
        // HGP of the deterministic (3,4) QC-LDPC seed with itself: the seed has GF(2)
        // rank 13, so k = (20-13)^2 + (15-13)^2 = 53.
        let code = Code::hgp(5);
        assert_eq!(code.num_data(), 625);
        assert_eq!(code.num_logical(), 53);
    }

    #[test]
    fn check_weights_are_bounded_by_seven() {
        let code = Code::hgp(3);
        for check in code.checks() {
            assert!(check.weight() <= 7, "check weight {} too large", check.weight());
            assert!(check.weight() >= 2);
        }
    }

    #[test]
    fn data_degrees_are_irregular() {
        let code = Code::hgp(2);
        let mut classes: Vec<usize> = (0..code.num_data())
            .map(|q| code.checks().iter().filter(|c| c.support.contains(&q)).count())
            .collect();
        classes.sort_unstable();
        classes.dedup();
        assert!(classes.len() >= 2, "HGP should expose several degree classes: {classes:?}");
        assert!(*classes.last().expect("non-empty") <= 8);
    }

    #[test]
    fn hgp_of_repetition_code_is_toric_like() {
        // Repetition code H = cyclic difference matrix; HGP of it with itself gives a
        // toric-code-like [[2L^2, 2]] code.
        let l = 3;
        let mut h = BinaryMatrix::zeros(l, l);
        for i in 0..l {
            h.set(i, i, true);
            h.set(i, (i + 1) % l, true);
        }
        let code = Code::hgp_from_seeds(&h, &h, l, "hgp-repetition");
        assert_eq!(code.num_data(), 2 * l * l);
        assert_eq!(code.num_logical(), 2);
    }
}
