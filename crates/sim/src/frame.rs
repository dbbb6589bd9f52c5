//! Pauli frames and leakage flags for all physical qubits of a code.

use crate::bits::{BitVec, Bits};
use crate::pauli::Pauli;
use qec_codes::{CheckId, DataQubitId};

/// Pauli frames (X/Z error components) and leak flags for every physical qubit,
/// each a packed [`BitVec`].
///
/// Data qubits keep their frame across rounds; ancilla (parity) qubits are measured and
/// reset every round so only their *leak* flag persists — their within-round frame is
/// local to the round executor.
#[derive(Debug, PartialEq, Eq)]
pub struct QubitFrames {
    data_x: BitVec,
    data_z: BitVec,
    data_leak: BitVec,
    ancilla_leak: BitVec,
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
            data_x: BitVec::new(num_data),
            data_z: BitVec::new(num_data),
            data_leak: BitVec::new(num_data),
            ancilla_leak: BitVec::new(num_ancilla),
        }
    }

    /// Clears every frame and leak flag in place (no reallocation), leaving the
    /// frames identical to freshly constructed ones.
    pub fn clear(&mut self) {
        for flags in
            [&mut self.data_x, &mut self.data_z, &mut self.data_leak, &mut self.ancilla_leak]
        {
            flags.clear();
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
            self.data_x.toggle(q);
        }
        if p.has_z() {
            self.data_z.toggle(q);
        }
    }

    /// X component of a data qubit's frame.
    #[must_use]
    pub fn data_has_x(&self, q: DataQubitId) -> bool {
        self.data_x.get(q)
    }

    /// Z component of a data qubit's frame.
    #[must_use]
    pub fn data_has_z(&self, q: DataQubitId) -> bool {
        self.data_z.get(q)
    }

    /// Current Pauli on a data qubit.
    #[must_use]
    pub fn data_pauli(&self, q: DataQubitId) -> Pauli {
        Pauli::from_components(self.data_x.get(q), self.data_z.get(q))
    }

    /// Leak flag of a data qubit.
    #[must_use]
    pub fn data_leaked(&self, q: DataQubitId) -> bool {
        self.data_leak.get(q)
    }

    /// Set the leak flag of a data qubit.
    pub fn set_data_leaked(&mut self, q: DataQubitId, leaked: bool) {
        self.data_leak.set(q, leaked);
    }

    /// Leak flag of an ancilla qubit (indexed by its check id).
    #[must_use]
    pub fn ancilla_leaked(&self, c: CheckId) -> bool {
        self.ancilla_leak.get(c)
    }

    /// Set the leak flag of an ancilla qubit.
    pub fn set_ancilla_leaked(&mut self, c: CheckId, leaked: bool) {
        self.ancilla_leak.set(c, leaked);
    }

    /// Number of currently leaked data qubits.
    #[must_use]
    pub fn leaked_data_count(&self) -> usize {
        self.data_leak.count_ones()
    }

    /// Number of currently leaked ancilla qubits.
    #[must_use]
    pub fn leaked_ancilla_count(&self) -> usize {
        self.ancilla_leak.count_ones()
    }

    /// `true` when any data or ancilla qubit is leaked.
    pub(crate) fn any_leaked(&self) -> bool {
        self.data_leak.any() || self.ancilla_leak.any()
    }

    /// The data leak flags.
    #[must_use]
    pub fn data_leaks(&self) -> Bits<'_> {
        self.data_leak.as_bits()
    }

    /// The ancilla leak flags.
    #[must_use]
    pub fn ancilla_leaks(&self) -> Bits<'_> {
        self.ancilla_leak.as_bits()
    }

    /// The data X frames (bit-flip components).
    #[must_use]
    pub fn data_x(&self) -> Bits<'_> {
        self.data_x.as_bits()
    }

    /// The data Z frames (phase-flip components).
    #[must_use]
    pub fn data_z(&self) -> Bits<'_> {
        self.data_z.as_bits()
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
        assert!(!f.data_x().any() && !f.data_z().any());
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
    fn clone_from_matches_clone_and_reuses_capacity() {
        let mut src = QubitFrames::new(5, 3);
        src.apply_data_pauli(1, Pauli::X);
        src.apply_data_pauli(2, Pauli::Z);
        src.set_data_leaked(4, true);
        src.set_ancilla_leaked(0, true);

        let mut dst = QubitFrames::new(5, 3);
        let ptr_before = dst.data_x.as_bits().words().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst, src.clone());
        let ptr_after = dst.data_x.as_bits().words().as_ptr();
        assert_eq!(ptr_after, ptr_before, "clone_from must reuse the allocation");
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
