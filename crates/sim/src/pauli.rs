//! Single-qubit Pauli operators as tracked by the frame simulator.

use rand::Rng;
use std::fmt;
use std::ops::Mul;

/// A single-qubit Pauli operator (phases are irrelevant for frame simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pauli {
    /// Identity.
    #[default]
    I,
    /// Bit flip.
    X,
    /// Combined bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All four Paulis, in `I, X, Y, Z` order.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// The three non-identity Paulis.
    pub const ERRORS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// `true` if the operator has an X component (flips Z-basis measurements).
    #[must_use]
    pub fn has_x(self) -> bool {
        matches!(self, Pauli::X | Pauli::Y)
    }

    /// `true` if the operator has a Z component (flips X-basis measurements).
    #[must_use]
    pub fn has_z(self) -> bool {
        matches!(self, Pauli::Z | Pauli::Y)
    }

    /// Builds a Pauli from its X and Z components.
    #[must_use]
    pub fn from_components(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (false, true) => Pauli::Z,
            (true, true) => Pauli::Y,
        }
    }

    /// Draws a uniformly random Pauli from `{I, X, Y, Z}` — the malfunction model for a
    /// CNOT with a leaked operand (50 % chance of an X component).
    pub fn random_uniform<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Pauli::ALL[rng.gen_range(0..4)]
    }

    /// Draws a uniformly random *non-identity* Pauli — the single-qubit depolarizing
    /// channel conditioned on an error happening.
    pub fn random_error<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Pauli::ERRORS[rng.gen_range(0..3)]
    }
}

impl Mul for Pauli {
    type Output = Pauli;

    fn mul(self, rhs: Pauli) -> Pauli {
        Pauli::from_components(self.has_x() ^ rhs.has_x(), self.has_z() ^ rhs.has_z())
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pauli::I => "I",
            Pauli::X => "X",
            Pauli::Y => "Y",
            Pauli::Z => "Z",
        };
        write!(f, "{s}")
    }
}

/// Draws a uniformly random non-identity *two-qubit* Pauli (one of the 15 products),
/// returning the component acting on each operand.
pub fn random_two_qubit_error<R: Rng + ?Sized>(rng: &mut R) -> (Pauli, Pauli) {
    loop {
        let a = Pauli::ALL[rng.gen_range(0..4)];
        let b = Pauli::ALL[rng.gen_range(0..4)];
        if a != Pauli::I || b != Pauli::I {
            return (a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn component_roundtrip() {
        for p in Pauli::ALL {
            assert_eq!(Pauli::from_components(p.has_x(), p.has_z()), p);
        }
    }

    #[test]
    fn multiplication_is_component_wise_xor() {
        assert_eq!(Pauli::X * Pauli::Z, Pauli::Y);
        assert_eq!(Pauli::Y * Pauli::Y, Pauli::I);
        assert_eq!(Pauli::X * Pauli::I, Pauli::X);
        assert_eq!(Pauli::Z * Pauli::Y, Pauli::X);
    }

    #[test]
    fn random_uniform_has_roughly_half_bit_flips() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 20_000;
        let flips = (0..n).filter(|_| Pauli::random_uniform(&mut rng).has_x()).count();
        let fraction = flips as f64 / n as f64;
        assert!((fraction - 0.5).abs() < 0.02, "bit-flip fraction {fraction}");
    }

    #[test]
    fn random_error_never_returns_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_ne!(Pauli::random_error(&mut rng), Pauli::I);
        }
    }

    #[test]
    fn two_qubit_error_never_returns_double_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let (a, b) = random_two_qubit_error(&mut rng);
            assert!(a != Pauli::I || b != Pauli::I);
        }
    }

    #[test]
    fn display_is_single_letter() {
        assert_eq!(format!("{}", Pauli::Y), "Y");
    }
}
