//! Device-level leakage characterization (substitute for the paper's IBM experiments).
//!
//! Section 2.3 of the paper injects leakage on IBM hardware (Lagos/Jakarta/Perth, via
//! Qiskit Pulse) and measures two effects that calibrate the simulator's noise model:
//!
//! 1. a CNOT whose control is leaked toggles its target between |0⟩ and |1⟩,
//!    producing a ≈50 % bit-flip (Figure 3a), and
//! 2. repeated CNOTs spread and accumulate leakage when a leaked qubit is present,
//!    while the background population stays low without injection (Figure 3c/d).
//!
//! Pulse-level access to those machines was retired in 2024 and is unavailable here, so
//! this module provides a [`DeviceModel`] that reproduces the *measured behaviour*
//! directly; the Figure 3 runner regenerates the same curves from this model.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::noise::NoiseParams;
use crate::pauli::Pauli;

/// Outcome statistics of the leaked-control CNOT experiment (Figure 3a).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeakedCnotStats {
    /// Number of shots executed.
    pub shots: usize,
    /// Probability of measuring the target in |1⟩.
    pub p_target_one: f64,
    /// Probability that the target ended up leaked itself (leakage transport).
    pub p_target_leaked: f64,
}

/// A two-qubit device model calibrated to the paper's IBM characterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    noise: NoiseParams,
}

impl DeviceModel {
    /// Builds a device model from the circuit-level noise parameters.
    #[must_use]
    pub fn new(noise: NoiseParams) -> Self {
        DeviceModel { noise }
    }

    /// The underlying noise parameters.
    #[must_use]
    pub fn noise(&self) -> &NoiseParams {
        &self.noise
    }

    /// Repeats the single-CNOT experiment of Figure 3(a)/(b) with the control qubit
    /// initialized in |2⟩ and reports the target outcome statistics.
    #[must_use]
    pub fn leaked_control_cnot(&self, shots: usize, seed: u64) -> LeakedCnotStats {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ones = 0usize;
        let mut leaked = 0usize;
        for _ in 0..shots {
            let mut target_one = false;
            let mut target_leaked = false;
            // Malfunctioning CNOT: leakage transport or a uniformly random Pauli.
            if rng.gen_bool(self.noise.mobility) {
                target_leaked = true;
            } else if Pauli::random_uniform(&mut rng).has_x() {
                target_one = true;
            }
            // Readout error on the target.
            if rng.gen_bool(self.noise.p) {
                target_one = !target_one;
            }
            if target_leaked {
                // A leaked target reads out randomly.
                target_one = rng.gen_bool(0.5);
                leaked += 1;
            }
            if target_one {
                ones += 1;
            }
        }
        LeakedCnotStats {
            shots,
            p_target_one: ones as f64 / shots as f64,
            p_target_leaked: leaked as f64 / shots as f64,
        }
    }

    /// Repeats the leakage-accumulation experiment of Figure 3(c)/(d): `k` consecutive
    /// CNOTs between a fixed control/target pair, optionally injecting leakage on the
    /// control before the first gate. Returns the measured leakage population of the
    /// pair after each gate, averaged over `shots` repetitions.
    #[must_use]
    pub fn leakage_accumulation(
        &self,
        num_cnots: usize,
        inject_initial_leakage: bool,
        shots: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut population = vec![0.0f64; num_cnots];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..shots {
            let mut control_leaked = inject_initial_leakage;
            let mut target_leaked = false;
            for (step, slot) in population.iter_mut().enumerate() {
                let _ = step;
                // Gate-induced leakage on either operand.
                if rng.gen_bool(self.noise.p_leak()) {
                    if rng.gen_bool(0.5) {
                        control_leaked = true;
                    } else {
                        target_leaked = true;
                    }
                }
                // Leakage transport through the malfunctioning gate.
                if control_leaked && !target_leaked && rng.gen_bool(self.noise.mobility) {
                    target_leaked = true;
                }
                if target_leaked && !control_leaked && rng.gen_bool(self.noise.mobility) {
                    control_leaked = true;
                }
                let leaked_count = usize::from(control_leaked) + usize::from(target_leaked);
                *slot += leaked_count as f64 / 2.0;
            }
        }
        for slot in &mut population {
            *slot /= shots as f64;
        }
        population
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DeviceModel {
        DeviceModel::new(NoiseParams::default())
    }

    #[test]
    fn leaked_control_produces_roughly_half_bit_flips() {
        let stats = model().leaked_control_cnot(20_000, 13);
        // 10% of shots transport leakage (-> random readout), the rest see a uniform
        // Pauli, so the |1> probability stays close to 0.5 overall.
        assert!(
            (stats.p_target_one - 0.5).abs() < 0.05,
            "expected ~50% bit flips, got {}",
            stats.p_target_one
        );
        assert!(
            (stats.p_target_leaked - 0.1).abs() < 0.02,
            "leakage transport should match the mobility parameter, got {}",
            stats.p_target_leaked
        );
    }

    #[test]
    fn accumulation_grows_with_injection_and_stays_low_without() {
        let m = model();
        let with = m.leakage_accumulation(40, true, 4_000, 7);
        let without = m.leakage_accumulation(40, false, 4_000, 7);
        assert!(
            with[0] >= 0.45,
            "with an injected leak at least the control (half the pair) is leaked"
        );
        assert!(
            with.last().expect("non-empty") > &with[0],
            "leakage population must grow with repeated CNOTs when injected"
        );
        assert!(
            without.last().expect("non-empty") < &0.05,
            "background leakage population must stay low without injection"
        );
        assert!(
            with.last().expect("non-empty") > &(without.last().expect("non-empty") * 5.0),
            "injected runs must accumulate much more leakage than background"
        );
    }

    #[test]
    fn accumulation_population_is_monotone_on_average() {
        let m = model();
        let curve = m.leakage_accumulation(30, true, 8_000, 21);
        // Smoothness check: later thirds should not drop below earlier thirds.
        let first: f64 = curve[..10].iter().sum::<f64>() / 10.0;
        let last: f64 = curve[20..].iter().sum::<f64>() / 10.0;
        assert!(last >= first);
    }
}
