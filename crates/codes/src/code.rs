//! Core types describing a CSS stabilizer code.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::graph::InteractionGraph;
use crate::linalg::BinaryMatrix;

/// Identifier of a data qubit within a [`Code`] (dense index `0..num_data`).
pub type DataQubitId = usize;

/// Identifier of a stabilizer check / parity (ancilla) qubit within a [`Code`]
/// (dense index `0..num_checks`).
pub type CheckId = usize;

/// The Pauli basis of a stabilizer check in a CSS code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheckBasis {
    /// X-type check: detects Z (phase-flip) errors on its support.
    X,
    /// Z-type check: detects X (bit-flip) errors on its support.
    Z,
}

impl CheckBasis {
    /// The opposite basis.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            CheckBasis::X => CheckBasis::Z,
            CheckBasis::Z => CheckBasis::X,
        }
    }
}

impl fmt::Display for CheckBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckBasis::X => write!(f, "X"),
            CheckBasis::Z => write!(f, "Z"),
        }
    }
}

/// One stabilizer check of a CSS code.
///
/// The `support` lists the data qubits the check acts on **in CNOT-schedule order**:
/// the `i`-th entry is entangled with the ancilla at time step `i` of the
/// syndrome-extraction circuit. This ordering is what determines which syndrome bits a
/// mid-round fault (or a leakage event) can still influence.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Dense index of the check within its code.
    pub id: CheckId,
    /// X or Z type.
    pub basis: CheckBasis,
    /// Data qubits acted on, in CNOT time order.
    pub support: Vec<DataQubitId>,
    /// Optional 2-D coordinate used for plotting / geometric tie-breaking.
    pub position: (f64, f64),
}

impl Check {
    /// Number of data qubits in the support.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.support.len()
    }
}

/// The code families the workspace constructs, keyed for sweep grids.
///
/// Each family has one size parameter: the distance of a surface or color
/// code, the circulant size `l` of an HGP or BPC code. [`CodeFamily::build`]
/// is the one place a family and a size become a [`Code`], and
/// [`CodeFamily::code_name`] names the result without building it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodeFamily {
    /// Rotated surface code; the size parameter is the (odd) distance `d ≥ 3`.
    Surface,
    /// Triangular 6.6.6 color code; the size parameter is the (odd) distance `d ≥ 3`.
    Color,
    /// Hypergraph-product code from a quasi-cyclic LDPC seed; the size
    /// parameter is the seed circulant size `l ≥ 2`.
    Hgp,
    /// Balanced-product cyclic (two-block circulant) code; the size parameter
    /// is the circulant size `l`, a positive multiple of 7.
    Bpc,
}

impl CodeFamily {
    /// Every family, in sweep-grid listing order.
    pub const ALL: [CodeFamily; 4] =
        [CodeFamily::Surface, CodeFamily::Color, CodeFamily::Hgp, CodeFamily::Bpc];

    /// The lowercase name used in grids, reports and scenario ids.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CodeFamily::Surface => "surface",
            CodeFamily::Color => "color",
            CodeFamily::Hgp => "hgp",
            CodeFamily::Bpc => "bpc",
        }
    }

    /// Parses a grid label back into a family (inverse of [`CodeFamily::label`]).
    #[must_use]
    pub fn from_label(label: &str) -> Option<CodeFamily> {
        CodeFamily::ALL.iter().copied().find(|family| family.label() == label)
    }

    /// Checks that `size` is a valid size parameter for this family.
    ///
    /// # Errors
    /// Returns a message naming the constraint the size violates.
    pub fn validate_size(self, size: usize) -> Result<(), String> {
        let ok = match self {
            CodeFamily::Surface | CodeFamily::Color => size >= 3 && size % 2 == 1,
            CodeFamily::Hgp => size >= 2,
            CodeFamily::Bpc => size > 0 && size % 7 == 0,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} does not admit size {size} (surface/color need odd d >= 3, \
                 hgp needs l >= 2, bpc needs a positive multiple of 7)",
                self.label()
            ))
        }
    }

    /// The name of the instance [`CodeFamily::build`] returns at `size`,
    /// without building it.
    #[must_use]
    pub fn code_name(self, size: usize) -> String {
        let prefix = match self {
            CodeFamily::Surface | CodeFamily::Color => 'd',
            CodeFamily::Hgp | CodeFamily::Bpc => 'l',
        };
        format!("{}-{prefix}{size}", self.label())
    }

    /// [`CodeFamily::code_name`] of a size a constructor is about to build.
    ///
    /// # Panics
    /// Panics with the [`CodeFamily::validate_size`] message when `size` is invalid.
    pub(crate) fn checked_name(self, size: usize) -> String {
        if let Err(message) = self.validate_size(size) {
            panic!("{message}");
        }
        self.code_name(size)
    }

    /// Builds the concrete code instance of this family at `size`.
    ///
    /// # Panics
    /// Panics when `size` violates the family's constraint; call
    /// [`CodeFamily::validate_size`] first for a recoverable check.
    #[must_use]
    pub fn build(self, size: usize) -> Code {
        match self {
            CodeFamily::Surface => Code::rotated_surface(size),
            CodeFamily::Color => Code::color_666(size),
            CodeFamily::Hgp => Code::hgp(size),
            CodeFamily::Bpc => Code::bpc(size),
        }
    }
}

impl fmt::Display for CodeFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A CSS stabilizer code with an explicit syndrome-extraction schedule.
///
/// Instances are produced by the family constructors ([`Code::rotated_surface`],
/// [`Code::color_666`], [`Code::hgp`], [`Code::bpc`]); the struct itself is
/// family-agnostic and is what the simulator, speculation policies and decoder consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Code {
    pub(crate) family: CodeFamily,
    pub(crate) name: String,
    pub(crate) distance: usize,
    pub(crate) num_data: usize,
    pub(crate) checks: Vec<Check>,
    /// Supports of logical X operators (possibly empty for codes where we do not
    /// track logicals, e.g. the qLDPC families used only for speculation metrics).
    pub(crate) logical_x: Vec<Vec<DataQubitId>>,
    /// Supports of logical Z operators.
    pub(crate) logical_z: Vec<Vec<DataQubitId>>,
    /// Optional 2-D coordinates of data qubits (plotting / staggering heuristics).
    pub(crate) data_positions: Vec<(f64, f64)>,
}

impl Code {
    /// Family of the code.
    #[must_use]
    pub fn family(&self) -> CodeFamily {
        self.family
    }

    /// Human-readable name, e.g. `"surface-d5"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Code distance (for HGP/BPC this is the *design* distance of the construction).
    #[must_use]
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// Number of data qubits.
    #[must_use]
    pub fn num_data(&self) -> usize {
        self.num_data
    }

    /// Number of stabilizer checks (equivalently parity/ancilla qubits).
    #[must_use]
    pub fn num_checks(&self) -> usize {
        self.checks.len()
    }

    /// Total number of physical qubits (data + ancilla).
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_data + self.num_checks()
    }

    /// All stabilizer checks.
    #[must_use]
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// The check with the given id.
    ///
    /// # Panics
    /// Panics if `id >= self.num_checks()`.
    #[must_use]
    pub fn check(&self, id: CheckId) -> &Check {
        &self.checks[id]
    }

    /// Iterator over the checks of one basis.
    pub fn checks_of(&self, basis: CheckBasis) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(move |c| c.basis == basis)
    }

    /// Supports of the logical X operators (may be empty).
    #[must_use]
    pub fn logical_x(&self) -> &[Vec<DataQubitId>] {
        &self.logical_x
    }

    /// Supports of the logical Z operators (may be empty).
    #[must_use]
    pub fn logical_z(&self) -> &[Vec<DataQubitId>] {
        &self.logical_z
    }

    /// 2-D coordinates of the data qubits (empty for the algebraic qLDPC families).
    #[must_use]
    pub fn data_positions(&self) -> &[(f64, f64)] {
        &self.data_positions
    }

    /// Number of logical qubits `k = n − rank(Hx) − rank(Hz)`.
    ///
    /// Computed from the stabilizer matrices; for all codes shipped with this crate the
    /// result is checked in tests (1 for surface and color codes).
    #[must_use]
    pub fn num_logical(&self) -> usize {
        let hx = self.check_matrix(CheckBasis::X);
        let hz = self.check_matrix(CheckBasis::Z);
        self.num_data - hx.rank() - hz.rank()
    }

    /// Parity-check matrix of one basis as a [`crate::BinaryMatrix`]
    /// (rows = checks of that basis, columns = data qubits).
    #[must_use]
    pub fn check_matrix(&self, basis: CheckBasis) -> crate::BinaryMatrix {
        let rows: Vec<Vec<usize>> = self.checks_of(basis).map(|c| c.support.clone()).collect();
        crate::BinaryMatrix::from_rows(self.num_data, &rows)
    }

    /// Data-qubit interaction graph (qubits adjacent when they share a check),
    /// used for the staggered open-loop LRC schedule.
    #[must_use]
    pub fn interaction_graph(&self) -> InteractionGraph {
        InteractionGraph::new(self)
    }

    /// CNOT layers of one syndrome-extraction round: the maximum check weight,
    /// since support entry `t` of every check runs in layer `t`.
    #[must_use]
    pub fn cnot_layers(&self) -> usize {
        self.checks.iter().map(Check::weight).max().unwrap_or(0)
    }

    /// `true` when every pair of X and Z checks overlaps on an even number of data
    /// qubits — the CSS commutation condition. Exposed for tests and for validating
    /// user-supplied HGP seeds.
    #[must_use]
    pub fn stabilizers_commute(&self) -> bool {
        let xs: Vec<&Check> = self.checks_of(CheckBasis::X).collect();
        let zs: Vec<&Check> = self.checks_of(CheckBasis::Z).collect();
        for x in &xs {
            for z in &zs {
                let overlap = x.support.iter().filter(|q| z.support.contains(q)).count();
                if overlap % 2 != 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Validates structural invariants (supports in range, no duplicate qubits inside a
    /// support, commuting stabilizers). Returns a description of the first violation.
    ///
    /// # Errors
    /// Returns `Err` with a human-readable message when an invariant is violated.
    pub fn validate(&self) -> Result<(), String> {
        for check in &self.checks {
            if check.support.is_empty() {
                return Err(format!("check {} has empty support", check.id));
            }
            let mut seen = vec![false; self.num_data];
            for &q in &check.support {
                if q >= self.num_data {
                    return Err(format!(
                        "check {} references data qubit {} out of range {}",
                        check.id, q, self.num_data
                    ));
                }
                if seen[q] {
                    return Err(format!("check {} lists data qubit {} twice", check.id, q));
                }
                seen[q] = true;
            }
        }
        for (i, check) in self.checks.iter().enumerate() {
            if check.id != i {
                return Err(format!("check at position {i} has id {}", check.id));
            }
        }
        for logical in self.logical_x.iter().chain(self.logical_z.iter()) {
            for &q in logical {
                if q >= self.num_data {
                    return Err(format!("logical operator references qubit {q} out of range"));
                }
            }
        }
        if !self.stabilizers_commute() {
            return Err("X and Z stabilizers do not commute".to_string());
        }
        Ok(())
    }

    /// Construct a code directly from its parts. Intended for tests and for building
    /// custom codes; the family constructors should be preferred.
    ///
    /// # Errors
    /// Returns `Err` when [`Code::validate`] fails on the assembled code.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        family: CodeFamily,
        name: impl Into<String>,
        distance: usize,
        num_data: usize,
        checks: Vec<Check>,
        logical_x: Vec<Vec<DataQubitId>>,
        logical_z: Vec<Vec<DataQubitId>>,
        data_positions: Vec<(f64, f64)>,
    ) -> Result<Self, String> {
        let code = Code {
            family,
            name: name.into(),
            distance,
            num_data,
            checks,
            logical_x,
            logical_z,
            data_positions,
        };
        code.validate()?;
        Ok(code)
    }

    /// Assembles a CSS code without logicals or positions from its X and Z
    /// parity-check matrices: each non-empty row becomes one check (X rows
    /// first) whose support, in ascending column order, doubles as the CNOT
    /// schedule.
    ///
    /// # Panics
    /// Panics if the matrices act on different qubits or yield an invalid code
    /// (e.g. non-commuting stabilizers).
    pub(crate) fn from_css_matrices(
        family: CodeFamily,
        name: String,
        distance: usize,
        hx: &BinaryMatrix,
        hz: &BinaryMatrix,
    ) -> Code {
        assert_eq!(hx.cols(), hz.cols(), "Hx and Hz must act on the same qubits");
        let mut checks = Vec::with_capacity(hx.rows() + hz.rows());
        for (matrix, basis, y) in [(hx, CheckBasis::X, 0.0), (hz, CheckBasis::Z, 1.0)] {
            for r in 0..matrix.rows() {
                let support = matrix.row_support(r);
                if !support.is_empty() {
                    checks.push(Check {
                        id: checks.len(),
                        basis,
                        support,
                        position: (r as f64, y),
                    });
                }
            }
        }
        Code::from_parts(family, name, distance, hx.cols(), checks, vec![], vec![], vec![])
            .expect("CSS matrices with Hx·Hzᵀ = 0 yield a valid code")
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [[{}, {}, {}]] ({} checks)",
            self.name,
            self.num_data,
            self.num_logical(),
            self.distance,
            self.num_checks()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_code() -> Code {
        // Four-qubit [[4,2,2]] code: X1X2X3X4 and Z1Z2Z3Z4.
        Code::from_parts(
            CodeFamily::Surface,
            "toy-422",
            2,
            4,
            vec![
                Check {
                    id: 0,
                    basis: CheckBasis::X,
                    support: vec![0, 1, 2, 3],
                    position: (0.0, 0.0),
                },
                Check {
                    id: 1,
                    basis: CheckBasis::Z,
                    support: vec![0, 1, 2, 3],
                    position: (1.0, 0.0),
                },
            ],
            vec![vec![0, 1]],
            vec![vec![0, 2]],
            vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        )
        .expect("toy code is valid")
    }

    #[test]
    fn toy_code_counts() {
        let code = toy_code();
        assert_eq!(code.num_data(), 4);
        assert_eq!(code.num_checks(), 2);
        assert_eq!(code.num_qubits(), 6);
        assert_eq!(code.num_logical(), 2);
        assert_eq!(code.check(0).weight(), 4);
    }

    #[test]
    fn family_labels_round_trip() {
        for family in CodeFamily::ALL {
            assert_eq!(CodeFamily::from_label(family.label()), Some(family));
        }
        assert_eq!(CodeFamily::from_label("steane"), None);
    }

    #[test]
    fn size_validation_matches_constructor_constraints() {
        assert!(CodeFamily::Surface.validate_size(5).is_ok());
        assert!(CodeFamily::Surface.validate_size(4).is_err());
        assert!(CodeFamily::Color.validate_size(1).is_err());
        assert!(CodeFamily::Hgp.validate_size(2).is_ok());
        assert!(CodeFamily::Hgp.validate_size(1).is_err());
        assert!(CodeFamily::Bpc.validate_size(14).is_ok());
        assert!(CodeFamily::Bpc.validate_size(10).is_err());
    }

    #[test]
    fn basis_flip_is_involutive() {
        assert_eq!(CheckBasis::X.flipped(), CheckBasis::Z);
        assert_eq!(CheckBasis::Z.flipped().flipped(), CheckBasis::Z);
    }

    #[test]
    fn validate_rejects_out_of_range_support() {
        let result = Code::from_parts(
            CodeFamily::Hgp,
            "bad",
            1,
            2,
            vec![Check { id: 0, basis: CheckBasis::X, support: vec![0, 5], position: (0.0, 0.0) }],
            vec![],
            vec![],
            vec![],
        );
        assert!(result.is_err());
    }

    #[test]
    fn validate_rejects_duplicate_support_entries() {
        let result = Code::from_parts(
            CodeFamily::Hgp,
            "bad",
            1,
            3,
            vec![Check { id: 0, basis: CheckBasis::Z, support: vec![1, 1], position: (0.0, 0.0) }],
            vec![],
            vec![],
            vec![],
        );
        assert!(result.is_err());
    }

    #[test]
    fn validate_rejects_anticommuting_checks() {
        let result = Code::from_parts(
            CodeFamily::Hgp,
            "bad",
            1,
            3,
            vec![
                Check { id: 0, basis: CheckBasis::X, support: vec![0, 1], position: (0.0, 0.0) },
                Check { id: 1, basis: CheckBasis::Z, support: vec![1, 2], position: (0.0, 0.0) },
            ],
            vec![],
            vec![],
            vec![],
        );
        assert!(result.is_err());
    }

    #[test]
    fn display_mentions_name_and_parameters() {
        let code = toy_code();
        let rendered = format!("{code}");
        assert!(rendered.contains("toy-422"));
        assert!(rendered.contains("[[4, 2, 2]]"));
    }
}
