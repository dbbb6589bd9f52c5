//! Rotated surface code construction.
//!
//! The distance-`d` rotated surface code uses `d²` data qubits and `d²−1` parity
//! qubits (one per stabilizer check), i.e. `2d²−1` physical qubits in total, matching
//! Section 2.2 of the paper. Data qubits live on a `d×d` grid; weight-4 checks sit on
//! the plaquettes between them and weight-2 checks on alternating boundary positions.
//!
//! The CNOT schedule follows the usual two-pattern ordering (a "Z" sweep for X-type
//! checks and an "N" sweep for Z-type checks) so that hook errors do not reduce the
//! effective distance.

use crate::code::{Check, CheckBasis, Code, CodeFamily, DataQubitId};

/// Index of the data qubit at grid position `(row, col)` for distance `d`.
#[must_use]
fn data_index(d: usize, row: usize, col: usize) -> DataQubitId {
    row * d + col
}

/// Returns the data qubits touched by the plaquette whose upper-left corner sits at
/// ancilla coordinate `(ar, ac)` (each in `0..=d`), in the order
/// NW, NE, SW, SE. Out-of-bounds corners are returned as `None`.
fn plaquette_corners(d: usize, ar: usize, ac: usize) -> [Option<DataQubitId>; 4] {
    let corner = |r: isize, c: isize| -> Option<DataQubitId> {
        if r >= 0 && c >= 0 && (r as usize) < d && (c as usize) < d {
            Some(data_index(d, r as usize, c as usize))
        } else {
            None
        }
    };
    let (ar, ac) = (ar as isize, ac as isize);
    [
        corner(ar - 1, ac - 1), // NW
        corner(ar - 1, ac),     // NE
        corner(ar, ac - 1),     // SW
        corner(ar, ac),         // SE
    ]
}

impl Code {
    /// Builds the rotated surface code of odd distance `d ≥ 3`.
    ///
    /// # Panics
    /// Panics if `d` is even or smaller than 3.
    #[must_use]
    pub fn rotated_surface(d: usize) -> Code {
        let name = CodeFamily::Surface.checked_name(d);

        let mut checks = Vec::new();
        for ar in 0..=d {
            for ac in 0..=d {
                let basis = if (ar + ac) % 2 == 0 { CheckBasis::Z } else { CheckBasis::X };
                let corners = plaquette_corners(d, ar, ac);
                let present: Vec<DataQubitId> = corners.iter().flatten().copied().collect();
                if present.len() < 2 {
                    continue; // corner stumps
                }
                let keep = if present.len() == 4 {
                    true
                } else {
                    // Boundary plaquettes: top/bottom rows keep X checks,
                    // left/right columns keep Z checks.
                    let on_top_or_bottom = ar == 0 || ar == d;
                    let on_left_or_right = ac == 0 || ac == d;
                    (on_top_or_bottom && basis == CheckBasis::X)
                        || (on_left_or_right && basis == CheckBasis::Z)
                };
                if !keep {
                    continue;
                }
                // CNOT schedule: X checks sweep NW, NE, SW, SE ("Z" pattern);
                // Z checks sweep NW, SW, NE, SE ("N" pattern).
                let order: [usize; 4] = match basis {
                    CheckBasis::X => [0, 1, 2, 3],
                    CheckBasis::Z => [0, 2, 1, 3],
                };
                let support: Vec<DataQubitId> = order.iter().filter_map(|&i| corners[i]).collect();
                checks.push(Check {
                    id: checks.len(),
                    basis,
                    support,
                    position: (ac as f64 - 0.5, ar as f64 - 0.5),
                });
            }
        }

        // Logical operators: a horizontal row of Z operators stretches between the two
        // Z-type boundaries and a vertical column of X operators between the X-type
        // boundaries; they overlap on exactly one qubit.
        let logical_z = vec![(0..d).map(|c| data_index(d, 0, c)).collect::<Vec<_>>()];
        let logical_x = vec![(0..d).map(|r| data_index(d, r, 0)).collect::<Vec<_>>()];

        let data_positions = (0..d * d).map(|q| ((q % d) as f64, (q / d) as f64)).collect();

        Code::from_parts(
            CodeFamily::Surface,
            name,
            d,
            d * d,
            checks,
            logical_x,
            logical_z,
            data_positions,
        )
        .expect("rotated surface construction is internally consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CheckBasis;
    use proptest::prelude::*;

    #[test]
    fn qubit_counts_match_2d2_minus_1() {
        for d in [3usize, 5, 7, 9, 11] {
            let code = Code::rotated_surface(d);
            assert_eq!(code.num_data(), d * d, "data qubits at d={d}");
            assert_eq!(code.num_checks(), d * d - 1, "checks at d={d}");
            assert_eq!(code.num_qubits(), 2 * d * d - 1, "total qubits at d={d}");
        }
    }

    #[test]
    fn equal_number_of_x_and_z_checks() {
        for d in [3usize, 5, 7] {
            let code = Code::rotated_surface(d);
            let x = code.checks_of(CheckBasis::X).count();
            let z = code.checks_of(CheckBasis::Z).count();
            assert_eq!(x, z);
            assert_eq!(x + z, d * d - 1);
        }
    }

    #[test]
    fn check_weights_are_two_or_four() {
        let code = Code::rotated_surface(7);
        for check in code.checks() {
            assert!(matches!(check.weight(), 2 | 4), "weight {}", check.weight());
        }
    }

    #[test]
    fn encodes_exactly_one_logical_qubit() {
        for d in [3usize, 5, 7] {
            assert_eq!(Code::rotated_surface(d).num_logical(), 1, "d={d}");
        }
    }

    #[test]
    fn logical_operators_commute_with_stabilizers_and_anticommute_with_each_other() {
        for d in [3usize, 5, 7] {
            let code = Code::rotated_surface(d);
            let lx = &code.logical_x()[0];
            let lz = &code.logical_z()[0];
            // Logical X (X ops) must overlap every Z check evenly; logical Z every X check.
            for check in code.checks_of(CheckBasis::Z) {
                let overlap = check.support.iter().filter(|q| lx.contains(q)).count();
                assert_eq!(overlap % 2, 0, "logical X anticommutes with Z check {}", check.id);
            }
            for check in code.checks_of(CheckBasis::X) {
                let overlap = check.support.iter().filter(|q| lz.contains(q)).count();
                assert_eq!(overlap % 2, 0, "logical Z anticommutes with X check {}", check.id);
            }
            let cross = lx.iter().filter(|q| lz.contains(q)).count();
            assert_eq!(cross % 2, 1, "logical X and Z must anticommute");
            assert_eq!(lx.len(), d);
            assert_eq!(lz.len(), d);
        }
    }

    #[test]
    fn every_data_qubit_touches_between_two_and_four_checks() {
        let code = Code::rotated_surface(5);
        let degrees: Vec<usize> = (0..code.num_data())
            .map(|q| code.checks().iter().filter(|c| c.support.contains(&q)).count())
            .collect();
        for (q, &deg) in degrees.iter().enumerate() {
            assert!((2..=4).contains(&deg), "qubit {q} degree {deg}");
        }
        assert_eq!(degrees.iter().max(), Some(&4));
        let mut classes = degrees.clone();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes, vec![2, 3, 4]);
        // Bulk should dominate at weight 4.
        let bulk = degrees.iter().filter(|&&deg| deg == 4).count();
        assert!(bulk >= 9, "expected at least (d-2)^2 bulk qubits, got {bulk}");
    }

    #[test]
    fn bulk_data_qubits_touch_two_checks_of_each_basis() {
        let d = 7;
        let code = Code::rotated_surface(d);
        // interior qubit away from all boundaries
        let q = data_index(d, 3, 3);
        let mut x = 0;
        let mut z = 0;
        for check in code.checks().iter().filter(|c| c.support.contains(&q)) {
            match check.basis {
                CheckBasis::X => x += 1,
                CheckBasis::Z => z += 1,
            }
        }
        assert_eq!((x, z), (2, 2));
    }

    #[test]
    fn validates_structurally() {
        for d in [3usize, 5, 9] {
            Code::rotated_surface(d).validate().expect("valid code");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn stabilizers_commute_for_random_odd_distance(k in 1usize..6) {
            let d = 2 * k + 1;
            let code = Code::rotated_surface(d);
            prop_assert!(code.stabilizers_commute());
            prop_assert_eq!(code.num_logical(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "odd d")]
    fn even_distance_is_rejected() {
        let _ = Code::rotated_surface(4);
    }
}
