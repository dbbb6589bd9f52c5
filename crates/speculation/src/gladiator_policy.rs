//! The GLADIATOR runtime policy: table lookup against the offline pattern model.

use std::sync::Arc;

use gladiator::{GladiatorModel, SiteClass};
use leaky_sim::{LeakagePolicy, LrcRequest, PolicyContext};
use qec_codes::DataQubitId;

use crate::heuristics::mlr_ancilla_requests;
use crate::patterns::{PatternExtractor, PatternScratch};

/// Closed-loop leakage speculation using GLADIATOR's offline pattern tables.
///
/// The policy evaluates, for every data qubit, the syndrome pattern over its adjacent
/// parity sites and schedules an LRC when the pattern is labeled leakage-dominated.
/// Two switches reproduce the paper's variants: `use_mlr` adds MLR-triggered parity
/// LRCs ("+M"), and `deferred` classifies two-round windows instead of single rounds
/// ("-D", Section 5.2).
///
/// Boundary and corner qubits expose so little syndrome information that their
/// single-round table flags nothing at all; for exactly those qubits the policy falls
/// back to the two-round window even in non-deferred mode (this is the same
/// sparse-syndrome argument the paper uses to motivate GLADIATOR-D in Section 5).
///
/// Planning is sparse: only the qubits next to a site that fired in the window, plus
/// the few whose own table flags the all-zero pattern or window, are classified. Every
/// other qubit's pattern is all-zero, so the decision it would get is known up front.
///
/// The expensive code-derived artifacts — the offline [`GladiatorModel`] (fault
/// enumeration + Quine–McCluskey), the [`PatternExtractor`] and the per-qubit site
/// classes — are held behind [`Arc`] so one build can back many policy instances
/// across shots and threads: [`crate::PolicyFactory`] builds them once and hands them
/// to [`GladiatorPolicy::from_shared`], the one constructor.
#[derive(Debug, Clone)]
pub struct GladiatorPolicy {
    extractor: Arc<PatternExtractor>,
    model: Arc<GladiatorModel>,
    qubit_classes: Arc<Vec<SiteClass>>,
    qubit_uses_window: Vec<bool>,
    /// Whether any qubit reads the two-round window.
    any_window: bool,
    /// The qubits (ascending) whose table flags the all-zero pattern, or the
    /// all-zero window for window qubits: flagged even when none of their sites fired.
    zero_flagged: Vec<DataQubitId>,
    scratch: PatternScratch,
    use_mlr: bool,
    name: &'static str,
}

impl GladiatorPolicy {
    /// Builds a policy around prebuilt, shared offline artifacts. The artifacts must
    /// all derive from the same code; only the cheap per-qubit window and zero-pattern
    /// flags are computed here, so calling this once per worker thread costs
    /// O(num_data).
    #[must_use]
    pub fn from_shared(
        model: Arc<GladiatorModel>,
        extractor: Arc<PatternExtractor>,
        qubit_classes: Arc<Vec<SiteClass>>,
        use_mlr: bool,
        deferred: bool,
    ) -> Self {
        let name = match (deferred, use_mlr) {
            (false, false) => "gladiator",
            (false, true) => "gladiator+m",
            (true, false) => "gladiator-d",
            (true, true) => "gladiator-d+m",
        };
        let qubit_uses_window: Vec<bool> = qubit_classes
            .iter()
            .map(|class| {
                deferred
                    || model.class_table(class).map_or(true, |table| table.flagged_count() == 0)
            })
            .collect();
        let zero_flagged = qubit_classes
            .iter()
            .zip(&qubit_uses_window)
            .enumerate()
            .filter(|&(_, (class, &window))| class.width > 0 && flags(&model, class, window, 0))
            .map(|(q, _)| q)
            .collect();
        GladiatorPolicy {
            any_window: qubit_uses_window.contains(&true),
            scratch: PatternScratch::new(extractor.num_data()),
            extractor,
            model,
            qubit_classes,
            qubit_uses_window,
            zero_flagged,
            use_mlr,
            name,
        }
    }
}

/// The table decision for one qubit. `pattern` is the last round's site bits, or for
/// a window qubit the window `last << width | previous`.
fn flags(model: &GladiatorModel, class: &SiteClass, window: bool, pattern: u32) -> bool {
    if window {
        let previous = pattern & ((1 << class.width) - 1);
        model.classify_two_round_class(class, previous, pattern >> class.width)
    } else {
        model.classify_class(class, pattern)
    }
}

impl LeakagePolicy for GladiatorPolicy {
    fn name(&self) -> &str {
        self.name
    }

    fn plan_lrcs(&mut self, ctx: &PolicyContext<'_>) -> LrcRequest {
        let Some(last) = ctx.last_round() else {
            return LrcRequest::none();
        };
        let GladiatorPolicy {
            extractor,
            model,
            qubit_classes,
            qubit_uses_window,
            any_window,
            zero_flagged,
            scratch,
            use_mlr,
            ..
        } = self;
        // The two-round window is read by the deferred variant and by qubits whose
        // single-round table cannot flag anything (sparse boundary/corner sites); it
        // holds the last round above the previous one.
        let window = |q: DataQubitId| qubit_uses_window[q];
        scratch.add_fired(extractor, last.detectors(), |q| {
            Some(if window(q) { qubit_classes[q].width as u32 } else { 0 })
        });
        let previous = if *any_window { ctx.round_back(1) } else { None };
        if let Some(previous) = previous {
            scratch.add_fired(extractor, previous.detectors(), |q| window(q).then_some(0));
        }
        for &q in zero_flagged.iter() {
            scratch.mark(q);
        }

        let mut data = Vec::new();
        scratch.drain(|q, pattern| {
            // A window qubit flags nothing before two rounds of history exist.
            if (previous.is_some() || !window(q))
                && flags(model, &qubit_classes[q], window(q), pattern)
            {
                data.push(q);
            }
        });
        let ancilla = if *use_mlr { mlr_ancilla_requests(last) } else { Vec::new() };
        LrcRequest { data, ancilla }
    }

    fn reset(&mut self) {
        // All decisions derive from the per-round `PolicyContext`; the shared model,
        // extractor and class tables are immutable, and the scratch is all-zero
        // between calls, so there is no per-run state.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_policy, PolicyKind};
    use gladiator::GladiatorConfig;
    use leaky_sim::{NoiseParams, Simulator};
    use qec_codes::Code;

    fn quiet_noise() -> NoiseParams {
        NoiseParams::builder()
            .physical_error_rate(0.0)
            .leakage_ratio(0.0)
            .mobility(0.0)
            .mlr_false_flag(0.0)
            .build()
    }

    fn policy(kind: PolicyKind, code: &Code) -> Box<dyn LeakagePolicy + Send> {
        build_policy(kind, code, &GladiatorConfig::default())
    }

    #[test]
    fn variant_names_are_distinct() {
        let code = Code::rotated_surface(3);
        assert_eq!(policy(PolicyKind::Gladiator, &code).name(), "gladiator");
        assert_eq!(policy(PolicyKind::GladiatorM, &code).name(), "gladiator+m");
        assert_eq!(policy(PolicyKind::GladiatorD, &code).name(), "gladiator-d");
        assert_eq!(policy(PolicyKind::GladiatorDM, &code).name(), "gladiator-d+m");
        // The deferred switch sends every qubit through the two-round window.
        let deferred = GladiatorPolicy::from_shared(
            Arc::new(GladiatorModel::for_code(&code, GladiatorConfig::default())),
            Arc::new(PatternExtractor::new(&code)),
            Arc::new(SiteClass::per_qubit(&code)),
            false,
            true,
        );
        assert!(deferred.qubit_uses_window.iter().all(|&window| window));
    }

    #[test]
    fn gladiator_catches_an_injected_leak() {
        let code = Code::rotated_surface(3);
        let mut policy = policy(PolicyKind::GladiatorM, &code);
        let mut sim = Simulator::new(&code, quiet_noise(), 41);
        sim.inject_data_leakage(4);
        let run = sim.run_with_policy(policy.as_mut(), 40);
        assert!(
            run.rounds().iter().any(|r| r.data_lrcs().contains(&4)),
            "GLADIATOR should speculate the leaked centre qubit within a few rounds"
        );
        assert_eq!(run.rounds().last().expect("rounds").leaked_data_count(), 0);
    }

    #[test]
    fn gladiator_inserts_fewer_false_positive_lrcs_than_eraser() {
        // With leakage disabled every data LRC is a false positive; GLADIATOR's whole
        // point is to fire on far fewer of them (paper Figure 9).
        let code = Code::rotated_surface(5);
        let noise = NoiseParams::builder()
            .physical_error_rate(3e-3)
            .leakage_ratio(0.0)
            .mlr_false_flag(0.0)
            .build();
        let rounds = 300;
        let mut eraser = policy(PolicyKind::Eraser, &code);
        let eraser_run = Simulator::new(&code, noise, 7).run_with_policy(eraser.as_mut(), rounds);
        let mut glad = policy(PolicyKind::Gladiator, &code);
        let glad_run = Simulator::new(&code, noise, 7).run_with_policy(glad.as_mut(), rounds);
        assert!(
            glad_run.total_data_lrcs() * 2 < eraser_run.total_data_lrcs().max(1) * 3,
            "GLADIATOR ({}) should not exceed ~1.5x fewer FPs than ERASER ({})",
            glad_run.total_data_lrcs(),
            eraser_run.total_data_lrcs()
        );
        assert!(glad_run.total_data_lrcs() < eraser_run.total_data_lrcs());
    }

    #[test]
    fn deferred_variant_waits_for_two_rounds() {
        let code = Code::color_666(5);
        let mut policy = policy(PolicyKind::GladiatorDM, &code);
        let mut sim = Simulator::new(&code, quiet_noise(), 4);
        sim.inject_data_leakage(9);
        let run = sim.run_with_policy(policy.as_mut(), 30);
        // No decision can be made before two rounds of history exist.
        assert!(run.round(0).data_lrcs().is_empty());
        assert!(
            run.rounds().iter().any(|r| r.data_lrcs().contains(&9)),
            "GLADIATOR-D should speculate the injected color-code leak"
        );
    }

    #[test]
    fn quiet_system_triggers_no_lrcs() {
        let code = Code::rotated_surface(3);
        let mut policy = policy(PolicyKind::GladiatorM, &code);
        let mut sim = Simulator::new(&code, quiet_noise(), 2);
        let run = sim.run_with_policy(policy.as_mut(), 20);
        assert_eq!(run.total_lrcs(), 0);
    }
}
