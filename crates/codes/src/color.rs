//! Triangular 6.6.6 color code construction.
//!
//! The distance-`d` triangular color code on the hexagonal (6.6.6) lattice uses
//! `(3d²+1)/4` data qubits (37 for `d = 7`, as quoted in Section 5.1 of the paper) and
//! `(3d²+1)/4 − 1` faces, each of which hosts **both** an X-type and a Z-type check on
//! the same support (the code is self-dual CSS).
//!
//! We use the standard row-triangle coordinate system: sites `(r, c)` with
//! `0 ≤ c ≤ r ≤ 3(d−1)/2`. A site is a *face centre* when `(r + c) ≡ 2 (mod 3)` and a
//! data qubit otherwise. The face at `(r, c)` acts on the in-bounds data qubits among
//! its six lattice neighbours `(r±1, c±{0,1})` and `(r, c±1)`; interior faces have
//! weight 6 and boundary/corner faces weight 4, which is exactly the sparse-syndrome
//! regime (1–3 adjacent checks per data qubit per basis) the paper highlights.

use crate::code::{Check, CheckBasis, Code, CodeFamily, DataQubitId};
use std::collections::BTreeMap;

/// Site classification on the triangular lattice.
fn is_face(r: usize, c: usize) -> bool {
    (r + c) % 3 == 2
}

/// The six neighbour coordinates of a site on the triangular-grid embedding of the
/// hexagonal lattice.
fn neighbors(r: usize, c: usize) -> [(isize, isize); 6] {
    let (r, c) = (r as isize, c as isize);
    [(r - 1, c - 1), (r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c), (r + 1, c + 1)]
}

impl Code {
    /// Builds the triangular 6.6.6 color code of odd distance `d ≥ 3`.
    ///
    /// # Panics
    /// Panics if `d` is even or smaller than 3.
    #[must_use]
    pub fn color_666(d: usize) -> Code {
        let name = CodeFamily::Color.checked_name(d);
        let max_row = 3 * (d - 1) / 2;

        // Assign dense indices to data-qubit sites.
        let mut data_ids: BTreeMap<(usize, usize), DataQubitId> = BTreeMap::new();
        let mut data_positions = Vec::new();
        for r in 0..=max_row {
            for c in 0..=r {
                if !is_face(r, c) {
                    let id = data_ids.len();
                    data_ids.insert((r, c), id);
                    // x offset by half a row to draw the triangle
                    data_positions.push((c as f64 - r as f64 / 2.0, r as f64));
                }
            }
        }
        let num_data = data_ids.len();

        // Build faces; each face contributes an X check and a Z check on the same support.
        let mut face_supports: Vec<(Vec<DataQubitId>, (f64, f64))> = Vec::new();
        for r in 0..=max_row {
            for c in 0..=r {
                if !is_face(r, c) {
                    continue;
                }
                let mut support: Vec<DataQubitId> = neighbors(r, c)
                    .iter()
                    .filter_map(|&(nr, nc)| {
                        if nr < 0 || nc < 0 || nc > nr {
                            return None;
                        }
                        data_ids.get(&(nr as usize, nc as usize)).copied()
                    })
                    .collect();
                support.sort_unstable();
                debug_assert!(support.len() >= 4, "face ({r},{c}) has weight {}", support.len());
                face_supports.push((support, (c as f64 - r as f64 / 2.0, r as f64)));
            }
        }

        let mut checks = Vec::with_capacity(face_supports.len() * 2);
        for (support, position) in &face_supports {
            checks.push(Check {
                id: checks.len(),
                basis: CheckBasis::X,
                support: support.clone(),
                position: *position,
            });
        }
        for (support, position) in &face_supports {
            checks.push(Check {
                id: checks.len(),
                basis: CheckBasis::Z,
                support: support.clone(),
                position: *position,
            });
        }

        // Logical X and Z both run along the bottom edge of the triangle (the code is
        // self-dual); the bottom edge holds exactly d data qubits.
        let bottom: Vec<DataQubitId> =
            (0..=max_row).filter_map(|c| data_ids.get(&(max_row, c)).copied()).collect();
        debug_assert_eq!(bottom.len(), d, "bottom edge of color code must hold d qubits");

        Code::from_parts(
            CodeFamily::Color,
            name,
            d,
            num_data,
            checks,
            vec![bottom.clone()],
            vec![bottom],
            data_positions,
        )
        .expect("triangular color code construction is internally consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CheckBasis;
    use proptest::prelude::*;

    #[test]
    fn qubit_counts_match_formula() {
        for d in [3usize, 5, 7, 9, 11, 19] {
            let code = Code::color_666(d);
            let expected = (3 * d * d + 1) / 4;
            assert_eq!(code.num_data(), expected, "data qubits at d={d}");
            // one face per logical-qubit-complement: (n-1)/2 faces, two checks each
            assert_eq!(code.num_checks(), expected - 1, "checks at d={d}");
        }
    }

    #[test]
    fn distance_7_uses_37_qubits_as_quoted_in_paper() {
        assert_eq!(Code::color_666(7).num_data(), 37);
    }

    #[test]
    fn faces_have_weight_four_or_six() {
        let code = Code::color_666(9);
        for check in code.checks() {
            assert!(matches!(check.weight(), 4 | 6), "face weight {}", check.weight());
        }
    }

    #[test]
    fn steane_code_is_distance_three_instance() {
        let code = Code::color_666(3);
        assert_eq!(code.num_data(), 7);
        assert_eq!(code.num_checks(), 6);
        for check in code.checks() {
            assert_eq!(check.weight(), 4);
        }
        assert_eq!(code.num_logical(), 1);
    }

    #[test]
    fn encodes_one_logical_qubit() {
        for d in [3usize, 5, 7, 9] {
            assert_eq!(Code::color_666(d).num_logical(), 1, "d={d}");
        }
    }

    #[test]
    fn logical_operator_has_weight_d_and_commutes_with_stabilizers() {
        for d in [3usize, 5, 7] {
            let code = Code::color_666(d);
            let lx = &code.logical_x()[0];
            assert_eq!(lx.len(), d);
            for check in code.checks_of(CheckBasis::Z) {
                let overlap = check.support.iter().filter(|q| lx.contains(q)).count();
                assert_eq!(overlap % 2, 0, "logical X anticommutes with a Z face, d={d}");
            }
            let lz = &code.logical_z()[0];
            let cross = lx.iter().filter(|q| lz.contains(q)).count();
            assert_eq!(cross % 2, 1, "self-dual logicals must anticommute");
        }
    }

    /// The number of X checks (equivalently faces) on each data qubit.
    fn x_degrees(code: &Code) -> Vec<usize> {
        (0..code.num_data())
            .map(|q| code.checks_of(CheckBasis::X).filter(|c| c.support.contains(&q)).count())
            .collect()
    }

    #[test]
    fn data_degree_per_basis_is_at_most_three() {
        let code = Code::color_666(7);
        for (q, &x_deg) in x_degrees(&code).iter().enumerate() {
            assert!((1..=3).contains(&x_deg), "qubit {q} X degree {x_deg}");
        }
    }

    #[test]
    fn corner_qubits_touch_a_single_face() {
        let code = Code::color_666(5);
        let per_basis_degrees = x_degrees(&code);
        // The paper (Fig. 8a) notes corner qubits yield 1-bit patterns and edge qubits
        // 2-bit patterns; make sure those degree classes actually occur.
        assert!(per_basis_degrees.contains(&1), "no corner (degree-1) qubits found");
        assert!(per_basis_degrees.contains(&2), "no edge (degree-2) qubits found");
        assert!(per_basis_degrees.contains(&3), "no bulk (degree-3) qubits found");
        let mut classes = per_basis_degrees;
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes, vec![1, 2, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn color_code_is_valid_css_for_random_distance(k in 1usize..6) {
            let d = 2 * k + 1;
            let code = Code::color_666(d);
            prop_assert!(code.stabilizers_commute());
            prop_assert_eq!(code.num_logical(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "odd d")]
    fn even_distance_is_rejected() {
        let _ = Code::color_666(6);
    }
}
