//! Open-loop LRC schedules: Always-LRC and Staggered Always-LRC.

use std::sync::Arc;

use leaky_sim::{LeakagePolicy, LrcRequest, PolicyContext};
use qec_codes::{Code, Coloring};

/// The naive open-loop baseline: every data and parity qubit receives an LRC after
/// every QEC round, regardless of the syndrome (Section 3.2).
#[derive(Debug, Clone)]
pub struct AlwaysLrc {
    num_data: usize,
    num_checks: usize,
}

impl AlwaysLrc {
    /// Builds the policy for `code`.
    #[must_use]
    pub fn new(code: &Code) -> Self {
        AlwaysLrc { num_data: code.num_data(), num_checks: code.num_checks() }
    }
}

impl LeakagePolicy for AlwaysLrc {
    fn name(&self) -> &str {
        "always-lrc"
    }

    fn plan_lrcs(&mut self, _ctx: &PolicyContext<'_>) -> LrcRequest {
        LrcRequest { data: (0..self.num_data).collect(), ancilla: (0..self.num_checks).collect() }
    }

    fn reset(&mut self) {
        // The schedule is unconditional; no per-run state.
    }
}

/// Staggered Always-LRC (Section 3.5): data qubits are coloured so that no two
/// interacting qubits share a colour, and one colour group is reset per round in
/// round-robin order. Parity qubits, which are measured and can be reset
/// unconditionally, receive an LRC every round.
#[derive(Debug, Clone)]
pub struct StaggeredLrc {
    coloring: Arc<Coloring>,
    num_checks: usize,
}

impl StaggeredLrc {
    /// Builds the policy around a prebuilt, shared colouring of the code's
    /// interaction graph.
    #[must_use]
    pub fn from_shared(coloring: Arc<Coloring>, num_checks: usize) -> Self {
        StaggeredLrc { coloring, num_checks }
    }
}

impl LeakagePolicy for StaggeredLrc {
    fn name(&self) -> &str {
        "staggered"
    }

    fn plan_lrcs(&mut self, ctx: &PolicyContext<'_>) -> LrcRequest {
        LrcRequest {
            data: self.coloring.group_for_round(ctx.round),
            ancilla: (0..self.num_checks).collect(),
        }
    }

    fn reset(&mut self) {
        // The round-robin position is derived from `ctx.round`, not stored here, so
        // reuse across shots is automatically bit-identical.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_policy, PolicyKind};
    use gladiator::GladiatorConfig;
    use leaky_sim::{policy::NeverLrc, NoiseParams, Simulator};
    use qec_codes::Code;

    fn staggered(code: &Code) -> Box<dyn LeakagePolicy + Send> {
        build_policy(PolicyKind::Staggered, code, &GladiatorConfig::default())
    }

    #[test]
    fn always_lrc_schedules_every_qubit_every_round() {
        let code = Code::rotated_surface(3);
        let mut policy = AlwaysLrc::new(&code);
        let mut sim = Simulator::new(&code, NoiseParams::default(), 1);
        let run = sim.run_with_policy(&mut policy, 5);
        for round in run.rounds() {
            assert_eq!(round.data_lrcs().len(), code.num_data());
            assert_eq!(round.ancilla_lrcs().len(), code.num_checks());
        }
    }

    #[test]
    fn staggered_covers_all_data_qubits_over_one_cycle() {
        let code = Code::rotated_surface(5);
        let mut policy = staggered(&code);
        let groups = code.interaction_graph().greedy_coloring().num_colors();
        let mut sim = Simulator::new(&code, NoiseParams::default(), 2);
        let run = sim.run_with_policy(policy.as_mut(), groups);
        let mut covered: Vec<usize> =
            run.rounds().iter().flat_map(|r| r.data_lrcs().to_vec()).collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), code.num_data());
    }

    #[test]
    fn staggered_never_resets_interacting_qubits_together() {
        let code = Code::rotated_surface(5);
        let graph = code.interaction_graph();
        let mut policy = staggered(&code);
        let mut sim = Simulator::new(&code, NoiseParams::default(), 3);
        let run = sim.run_with_policy(policy.as_mut(), 8);
        for round in run.rounds() {
            for (i, &a) in round.data_lrcs().iter().enumerate() {
                for &b in &round.data_lrcs()[i + 1..] {
                    assert!(!graph.neighbors(a).contains(&b), "{a} and {b} reset together");
                }
            }
        }
    }

    #[test]
    fn always_lrc_suppresses_leakage_relative_to_no_lrc() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder().physical_error_rate(1e-3).leakage_ratio(1.0).build();
        let rounds = 60;
        let run_never = Simulator::new(&code, noise, 11).run_with_policy(&mut NeverLrc, rounds);
        let mut always = AlwaysLrc::new(&code);
        let run_always = Simulator::new(&code, noise, 11).run_with_policy(&mut always, rounds);
        assert!(
            run_always.average_data_leak_fraction() < run_never.average_data_leak_fraction(),
            "Always-LRC must keep leakage below the unmitigated baseline"
        );
    }
}
