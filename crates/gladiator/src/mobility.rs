//! Leakage-mobility estimation (Section 7.6, Table 6).
//!
//! The choice between open-loop and closed-loop mitigation depends on how easily
//! leakage hops between qubits. The paper estimates mobility online by combining
//! GLADIATOR's speculative flags on data qubits with the multi-level-readout (MLR)
//! verdicts on the neighbouring parity qubits: the conditional probability
//! `P(adjacent ancilla MLR-leaked | data qubit flagged)` tracks the physical transport
//! probability, and a 5 % threshold separates the low- and high-mobility regimes.

use serde::{Deserialize, Serialize};

/// Mobility regime classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MobilityRegime {
    /// Leakage rarely transports; structured open-loop policies (staggered LRCs,
    /// walking codes) are competitive.
    Low,
    /// Leakage spreads readily; closed-loop speculation is required.
    High,
}

/// Accumulates (flagged data qubit, adjacent ancilla MLR) co-observations and estimates
/// the leakage mobility.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MobilityEstimator {
    flagged_observations: usize,
    flagged_with_leaked_neighbor: usize,
    threshold: f64,
}

impl MobilityEstimator {
    /// Creates an estimator with the paper's 5 % decision threshold.
    #[must_use]
    pub fn new() -> Self {
        MobilityEstimator {
            flagged_observations: 0,
            flagged_with_leaked_neighbor: 0,
            threshold: 0.05,
        }
    }

    /// Creates an estimator with a custom decision threshold.
    ///
    /// # Panics
    /// Panics unless `threshold` lies in `(0, 1)`.
    #[must_use]
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(threshold > 0.0 && threshold < 1.0, "threshold must be in (0, 1)");
        MobilityEstimator { flagged_observations: 0, flagged_with_leaked_neighbor: 0, threshold }
    }

    /// Records one round of observations.
    ///
    /// * `flagged_data` — data qubits the speculation policy flagged as leaked this round,
    /// * `ancilla_mlr` — whether a check's MLR flagged its parity qubit in the same round,
    /// * `adjacency` — for every data qubit, the ids of its adjacent checks.
    pub fn observe_round(
        &mut self,
        flagged_data: &[usize],
        ancilla_mlr: impl Fn(usize) -> bool,
        adjacency: &[Vec<usize>],
    ) {
        for &q in flagged_data {
            let Some(neighbors) = adjacency.get(q) else { continue };
            if neighbors.is_empty() {
                continue;
            }
            self.flagged_observations += 1;
            let any_leaked = neighbors.iter().any(|&c| ancilla_mlr(c));
            if any_leaked {
                self.flagged_with_leaked_neighbor += 1;
            }
        }
    }

    /// Number of flagged-data observations accumulated so far.
    #[must_use]
    pub fn observations(&self) -> usize {
        self.flagged_observations
    }

    /// The estimated conditional probability
    /// `P(adjacent ancilla leaked | data qubit flagged)`, or `None` before any
    /// observation.
    #[must_use]
    pub fn conditional_probability(&self) -> Option<f64> {
        if self.flagged_observations == 0 {
            return None;
        }
        Some(self.flagged_with_leaked_neighbor as f64 / self.flagged_observations as f64)
    }

    /// Classifies the mobility regime, or `None` before any observation.
    #[must_use]
    pub fn classify(&self) -> Option<MobilityRegime> {
        self.conditional_probability().map(|p| {
            if p < self.threshold {
                MobilityRegime::Low
            } else {
                MobilityRegime::High
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_adjacency(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|q| vec![q]).collect()
    }

    #[test]
    fn no_observations_yields_no_classification() {
        let est = MobilityEstimator::new();
        assert_eq!(est.classify(), None);
        assert_eq!(est.conditional_probability(), None);
        assert_eq!(est.observations(), 0);
    }

    #[test]
    fn frequent_neighbor_leakage_classifies_as_high() {
        let mut est = MobilityEstimator::new();
        let adjacency = line_adjacency(4);
        for round in 0..100 {
            let mlr = [round % 10 != 0, false, false, false];
            est.observe_round(&[0], |c| mlr[c], &adjacency);
        }
        assert_eq!(est.classify(), Some(MobilityRegime::High));
        assert!(est.conditional_probability().expect("has data") > 0.5);
    }

    #[test]
    fn rare_neighbor_leakage_classifies_as_low() {
        let mut est = MobilityEstimator::new();
        let adjacency = line_adjacency(4);
        for round in 0..100 {
            let mlr = [round == 7, false, false, false];
            est.observe_round(&[0], |c| mlr[c], &adjacency);
        }
        assert_eq!(est.classify(), Some(MobilityRegime::Low));
    }

    #[test]
    fn threshold_is_configurable() {
        let mut strict = MobilityEstimator::with_threshold(0.5);
        let adjacency = line_adjacency(2);
        for round in 0..10 {
            strict.observe_round(&[0], |c| c == 0 && round % 5 == 0, &adjacency);
        }
        // 20% conditional probability: High at the default 5% threshold, Low at 50%.
        assert_eq!(strict.classify(), Some(MobilityRegime::Low));
        let mut default = MobilityEstimator::new();
        for round in 0..10 {
            default.observe_round(&[0], |c| c == 0 && round % 5 == 0, &adjacency);
        }
        assert_eq!(default.classify(), Some(MobilityRegime::High));
    }

    #[test]
    fn qubits_without_neighbors_are_ignored() {
        let mut est = MobilityEstimator::new();
        let adjacency = vec![vec![], vec![0]];
        est.observe_round(&[0, 1], |c| c == 0, &adjacency);
        assert_eq!(est.observations(), 1);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn invalid_threshold_is_rejected() {
        let _ = MobilityEstimator::with_threshold(1.5);
    }
}
