//! Pauli frames and leakage flags for all physical qubits of a code.

use serde::{Deserialize, Serialize};

use crate::pauli::Pauli;
use qec_codes::{CheckId, DataQubitId};

/// Pauli frames (X/Z error components) and leak flags for every physical qubit.
///
/// Data qubits keep their frame across rounds; ancilla (parity) qubits are measured and
/// reset every round so only their *leak* flag persists — their within-round frame is
/// local to the round executor.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QubitFrames {
    data_x: Vec<bool>,
    data_z: Vec<bool>,
    data_leak: Vec<bool>,
    ancilla_leak: Vec<bool>,
}

// Hand-written so `clone_from` reuses the destination's allocations: checkpoint
// restore in closed-loop replay copies frames into an existing simulator many
// times per shot, and the derived impl would reallocate all four vectors on
// every restore.
impl Clone for QubitFrames {
    fn clone(&self) -> Self {
        QubitFrames {
            data_x: self.data_x.clone(),
            data_z: self.data_z.clone(),
            data_leak: self.data_leak.clone(),
            ancilla_leak: self.ancilla_leak.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.data_x.clone_from(&source.data_x);
        self.data_z.clone_from(&source.data_z);
        self.data_leak.clone_from(&source.data_leak);
        self.ancilla_leak.clone_from(&source.ancilla_leak);
    }
}

impl QubitFrames {
    /// Fresh, error-free frames for `num_data` data qubits and `num_ancilla` parity qubits.
    #[must_use]
    pub fn new(num_data: usize, num_ancilla: usize) -> Self {
        QubitFrames {
            data_x: vec![false; num_data],
            data_z: vec![false; num_data],
            data_leak: vec![false; num_data],
            ancilla_leak: vec![false; num_ancilla],
        }
    }

    /// Clears every frame and leak flag in place (no reallocation), leaving the
    /// frames identical to freshly constructed ones.
    pub fn clear(&mut self) {
        for flags in
            [&mut self.data_x, &mut self.data_z, &mut self.data_leak, &mut self.ancilla_leak]
        {
            for flag in flags.iter_mut() {
                *flag = false;
            }
        }
    }

    /// Number of data qubits tracked.
    #[must_use]
    pub fn num_data(&self) -> usize {
        self.data_x.len()
    }

    /// Number of ancilla qubits tracked.
    #[must_use]
    pub fn num_ancilla(&self) -> usize {
        self.ancilla_leak.len()
    }

    /// Apply a Pauli to a data qubit's frame.
    pub fn apply_data_pauli(&mut self, q: DataQubitId, p: Pauli) {
        if p.has_x() {
            self.data_x[q] = !self.data_x[q];
        }
        if p.has_z() {
            self.data_z[q] = !self.data_z[q];
        }
    }

    /// X component of a data qubit's frame.
    #[must_use]
    pub fn data_has_x(&self, q: DataQubitId) -> bool {
        self.data_x[q]
    }

    /// Z component of a data qubit's frame.
    #[must_use]
    pub fn data_has_z(&self, q: DataQubitId) -> bool {
        self.data_z[q]
    }

    /// Current Pauli on a data qubit.
    #[must_use]
    pub fn data_pauli(&self, q: DataQubitId) -> Pauli {
        Pauli::from_components(self.data_x[q], self.data_z[q])
    }

    /// Leak flag of a data qubit.
    #[must_use]
    pub fn data_leaked(&self, q: DataQubitId) -> bool {
        self.data_leak[q]
    }

    /// Set the leak flag of a data qubit.
    pub fn set_data_leaked(&mut self, q: DataQubitId, leaked: bool) {
        self.data_leak[q] = leaked;
    }

    /// Leak flag of an ancilla qubit (indexed by its check id).
    #[must_use]
    pub fn ancilla_leaked(&self, c: CheckId) -> bool {
        self.ancilla_leak[c]
    }

    /// Set the leak flag of an ancilla qubit.
    pub fn set_ancilla_leaked(&mut self, c: CheckId, leaked: bool) {
        self.ancilla_leak[c] = leaked;
    }

    /// Number of currently leaked data qubits.
    #[must_use]
    pub fn leaked_data_count(&self) -> usize {
        self.data_leak.iter().filter(|&&l| l).count()
    }

    /// Number of currently leaked ancilla qubits.
    #[must_use]
    pub fn leaked_ancilla_count(&self) -> usize {
        self.ancilla_leak.iter().filter(|&&l| l).count()
    }

    /// `true` when any data or ancilla qubit is leaked.
    pub(crate) fn any_leaked(&self) -> bool {
        self.data_leak.iter().chain(&self.ancilla_leak).any(|&leaked| leaked)
    }

    /// Snapshot of the data leak flags.
    #[must_use]
    pub fn data_leak_flags(&self) -> Vec<bool> {
        self.data_leak.clone()
    }

    /// Borrowed view of the data leak flags (allocation-free).
    #[must_use]
    pub fn data_leaks(&self) -> &[bool] {
        &self.data_leak
    }

    /// Borrowed view of the ancilla leak flags (allocation-free).
    #[must_use]
    pub fn ancilla_leaks(&self) -> &[bool] {
        &self.ancilla_leak
    }

    /// Snapshot of the ancilla leak flags.
    #[must_use]
    pub fn ancilla_leak_flags(&self) -> Vec<bool> {
        self.ancilla_leak.clone()
    }

    /// Snapshot of the data X frames (bit-flip components).
    #[must_use]
    pub fn data_x_frames(&self) -> Vec<bool> {
        self.data_x.clone()
    }

    /// Snapshot of the data Z frames (phase-flip components).
    #[must_use]
    pub fn data_z_frames(&self) -> Vec<bool> {
        self.data_z.clone()
    }

    /// Parity of the X components over a set of data qubits (flips Z-type checks and
    /// Z-basis logical measurements).
    #[must_use]
    pub fn x_parity(&self, support: &[DataQubitId]) -> bool {
        support.iter().filter(|&&q| self.data_x[q]).count() % 2 == 1
    }

    /// Parity of the Z components over a set of data qubits.
    #[must_use]
    pub fn z_parity(&self, support: &[DataQubitId]) -> bool {
        support.iter().filter(|&&q| self.data_z[q]).count() % 2 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_frames_are_clean() {
        let f = QubitFrames::new(5, 3);
        assert_eq!(f.num_data(), 5);
        assert_eq!(f.num_ancilla(), 3);
        assert_eq!(f.leaked_data_count(), 0);
        assert_eq!(f.leaked_ancilla_count(), 0);
        assert!(!f.x_parity(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn applying_pauli_twice_cancels() {
        let mut f = QubitFrames::new(2, 0);
        f.apply_data_pauli(0, Pauli::Y);
        assert_eq!(f.data_pauli(0), Pauli::Y);
        f.apply_data_pauli(0, Pauli::Y);
        assert_eq!(f.data_pauli(0), Pauli::I);
    }

    #[test]
    fn parities_track_supports() {
        let mut f = QubitFrames::new(4, 0);
        f.apply_data_pauli(1, Pauli::X);
        f.apply_data_pauli(3, Pauli::Z);
        assert!(f.x_parity(&[0, 1]));
        assert!(!f.x_parity(&[0, 2]));
        assert!(f.z_parity(&[3]));
        assert!(!f.z_parity(&[1, 2]));
    }

    #[test]
    fn clone_from_matches_clone_and_reuses_capacity() {
        let mut src = QubitFrames::new(5, 3);
        src.apply_data_pauli(1, Pauli::X);
        src.apply_data_pauli(2, Pauli::Z);
        src.set_data_leaked(4, true);
        src.set_ancilla_leaked(0, true);

        let mut dst = QubitFrames::new(5, 3);
        let ptr_before = dst.data_x.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst, src.clone());
        assert_eq!(dst.data_x.as_ptr(), ptr_before, "clone_from must reuse the allocation");
    }

    #[test]
    fn leak_flags_are_independent_of_frames() {
        let mut f = QubitFrames::new(3, 2);
        f.set_data_leaked(2, true);
        f.set_ancilla_leaked(0, true);
        assert!(f.data_leaked(2));
        assert!(f.ancilla_leaked(0));
        assert_eq!(f.leaked_data_count(), 1);
        assert_eq!(f.leaked_ancilla_count(), 1);
        assert_eq!(f.data_pauli(2), Pauli::I);
    }
}
