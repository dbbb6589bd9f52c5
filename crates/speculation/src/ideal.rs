//! Oracle speculation: the paper's "IDEAL" upper bound.

use leaky_sim::{GroundTruth, LeakagePolicy, LrcRequest, PolicyContext};

/// Oracle policy with perfect knowledge of the hidden leak flags: it resets exactly the
/// leaked qubits, every round. Used as the lower bound on leakage population and LRC
/// usage ("IDEAL" in Figures 1c and 10).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealOracle;

impl IdealOracle {
    /// Creates the oracle policy.
    #[must_use]
    pub fn new() -> Self {
        IdealOracle
    }
}

impl LeakagePolicy for IdealOracle {
    fn name(&self) -> &str {
        "ideal"
    }

    fn plan_lrcs(&mut self, ctx: &PolicyContext<'_>) -> LrcRequest {
        let GroundTruth { data_leaked, ancilla_leaked } = ctx.ground_truth;
        LrcRequest { data: data_leaked.ones().collect(), ancilla: ancilla_leaked.ones().collect() }
    }

    fn reset(&mut self) {
        // The oracle reads the ground truth fresh every round; no per-run state.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_sim::{NoiseParams, Simulator};
    use qec_codes::Code;

    #[test]
    fn oracle_resets_exactly_the_leaked_qubits() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder()
            .physical_error_rate(0.0)
            .leakage_ratio(0.0)
            .mobility(0.0)
            .mlr_false_flag(0.0)
            .build();
        let mut sim = Simulator::new(&code, noise, 1);
        sim.inject_data_leakage(0);
        sim.inject_data_leakage(7);
        sim.inject_ancilla_leakage(3);
        let mut policy = IdealOracle::new();
        let run = sim.run_with_policy(&mut policy, 3);
        let first = run.round(0);
        let mut data = first.data_lrcs().to_vec();
        data.sort_unstable();
        assert_eq!(data, vec![0, 7]);
        assert_eq!(first.ancilla_lrcs(), [3]);
        // With no further leakage sources, later rounds request nothing.
        assert!(run.round(1).data_lrcs().is_empty());
        assert_eq!(run.rounds().last().expect("rounds").leaked_data_count(), 0);
    }

    #[test]
    fn oracle_keeps_leakage_population_near_the_injection_floor() {
        let code = Code::rotated_surface(5);
        let noise = NoiseParams::builder().physical_error_rate(1e-3).leakage_ratio(1.0).build();
        let mut sim = Simulator::new(&code, noise, 5);
        let run = sim.run_with_policy(&mut IdealOracle::new(), 100);
        // Oracle removal happens one round after injection, so the standing population
        // stays within a small multiple of the per-round injection rate.
        assert!(
            run.average_data_leak_fraction() < 0.05,
            "oracle leakage population too high: {}",
            run.average_data_leak_fraction()
        );
    }
}
