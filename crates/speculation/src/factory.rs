//! Policy factory: build any evaluated policy by name.
//!
//! Two construction paths exist:
//!
//! * [`build_policy`] — the one-shot convenience API: every call re-derives all
//!   code-derived artifacts (the offline [`GladiatorModel`], pattern extractor,
//!   graph colouring). Fine for single runs, wasteful inside Monte-Carlo loops.
//! * [`PolicyFactory`] — the batch API: artifacts are built lazily *once* and shared
//!   behind [`Arc`] across every policy instance the factory hands out, across shots
//!   and worker threads. This is what the experiment harness' `BatchEngine` uses.

use std::fmt;
use std::sync::{Arc, OnceLock};

use gladiator::{GladiatorConfig, GladiatorModel, SiteClass};
use leaky_sim::{policy::NeverLrc, LeakagePolicy};
use qec_codes::{Code, Coloring};
use serde::{Deserialize, Serialize};

use crate::gladiator_policy::GladiatorPolicy;
use crate::heuristics::{EraserPolicy, MlrOnly};
use crate::ideal::IdealOracle;
use crate::open_loop::{AlwaysLrc, StaggeredLrc};
use crate::patterns::PatternExtractor;

/// Every leakage-mitigation policy evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// No mitigation at all.
    NoLrc,
    /// Open-loop LRCs on every qubit every round.
    AlwaysLrc,
    /// Open-loop round-robin over interaction-graph colour groups.
    Staggered,
    /// Multi-level readout only.
    MlrOnly,
    /// ERASER's 50 % heuristic, syndrome-only.
    Eraser,
    /// ERASER + multi-level readout.
    EraserM,
    /// GLADIATOR single-round speculation, syndrome-only.
    Gladiator,
    /// GLADIATOR + multi-level readout.
    GladiatorM,
    /// GLADIATOR with two-round deferred speculation.
    GladiatorD,
    /// GLADIATOR-D + multi-level readout.
    GladiatorDM,
    /// Oracle speculation (perfect knowledge of leak flags).
    Ideal,
}

impl PolicyKind {
    /// All kinds, in the order the paper's figures typically list them.
    pub const ALL: [PolicyKind; 11] = [
        PolicyKind::NoLrc,
        PolicyKind::AlwaysLrc,
        PolicyKind::Staggered,
        PolicyKind::MlrOnly,
        PolicyKind::Eraser,
        PolicyKind::EraserM,
        PolicyKind::Gladiator,
        PolicyKind::GladiatorM,
        PolicyKind::GladiatorD,
        PolicyKind::GladiatorDM,
        PolicyKind::Ideal,
    ];

    /// The label used in experiment outputs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::NoLrc => "no-lrc",
            PolicyKind::AlwaysLrc => "always-lrc",
            PolicyKind::Staggered => "staggered",
            PolicyKind::MlrOnly => "mlr-only",
            PolicyKind::Eraser => "eraser",
            PolicyKind::EraserM => "eraser+m",
            PolicyKind::Gladiator => "gladiator",
            PolicyKind::GladiatorM => "gladiator+m",
            PolicyKind::GladiatorD => "gladiator-d",
            PolicyKind::GladiatorDM => "gladiator-d+m",
            PolicyKind::Ideal => "ideal",
        }
    }

    /// Parses the output label back into a kind (the inverse of
    /// [`PolicyKind::label`]), for command-line grids and sweep specs.
    #[must_use]
    pub fn from_label(label: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.iter().copied().find(|kind| kind.label() == label)
    }

    /// `true` for closed-loop policies that rely on multi-level readout.
    #[must_use]
    pub fn uses_mlr(self) -> bool {
        matches!(
            self,
            PolicyKind::MlrOnly
                | PolicyKind::EraserM
                | PolicyKind::GladiatorM
                | PolicyKind::GladiatorDM
        )
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Builds a boxed policy of the requested kind for `code`, re-deriving every
/// code-derived artifact from scratch.
///
/// The `config` calibrates the GLADIATOR offline model; it is ignored by the other
/// policies. Inside Monte-Carlo loops use a [`PolicyFactory`] instead, which pays
/// for the artifacts once per experiment rather than once per call.
#[must_use]
pub fn build_policy(
    kind: PolicyKind,
    code: &Code,
    config: &GladiatorConfig,
) -> Box<dyn LeakagePolicy + Send> {
    PolicyFactory::new(code, config).build(kind)
}

/// Shared, lazily-built artifacts from which any [`PolicyKind`] can be instantiated
/// cheaply and repeatedly.
///
/// Every expensive code-derived structure is built at most once per factory, on
/// first demand, and shared behind [`Arc`] by all policies subsequently built —
/// regardless of which thread asks. The factory itself is `Sync`, so one instance
/// can serve a whole rayon pool: worker threads call [`PolicyFactory::build`] once
/// each and then [`LeakagePolicy::reset`] the returned policy between shots.
///
/// | artifact | needed by | cost |
/// |---|---|---|
/// | [`GladiatorModel`] | gladiator variants | fault enumeration + Quine–McCluskey |
/// | [`PatternExtractor`] | eraser, mlr-only, gladiator | site grouping per qubit |
/// | per-qubit [`SiteClass`]es | gladiator variants | code scan |
/// | greedy [`Coloring`] | staggered | interaction-graph colouring |
#[derive(Debug)]
pub struct PolicyFactory {
    code: Code,
    config: GladiatorConfig,
    extractor: OnceLock<Arc<PatternExtractor>>,
    model: OnceLock<Arc<GladiatorModel>>,
    qubit_classes: OnceLock<Arc<Vec<SiteClass>>>,
    coloring: OnceLock<Arc<Coloring>>,
}

impl PolicyFactory {
    /// Creates a factory for `code`; nothing is built until the first
    /// [`PolicyFactory::build`] call that needs it.
    #[must_use]
    pub fn new(code: &Code, config: &GladiatorConfig) -> Self {
        PolicyFactory {
            code: code.clone(),
            config: *config,
            extractor: OnceLock::new(),
            model: OnceLock::new(),
            qubit_classes: OnceLock::new(),
            coloring: OnceLock::new(),
        }
    }

    /// The code the factory's artifacts derive from.
    #[must_use]
    pub fn code(&self) -> &Code {
        &self.code
    }

    /// The GLADIATOR calibration in force.
    #[must_use]
    pub fn config(&self) -> &GladiatorConfig {
        &self.config
    }

    /// The shared offline model, building it on first call. Subsequent calls (from
    /// any thread) return the same allocation — `Arc::ptr_eq` holds.
    pub fn model(&self) -> &Arc<GladiatorModel> {
        self.model.get_or_init(|| Arc::new(GladiatorModel::for_code(&self.code, self.config)))
    }

    /// The shared pattern extractor, building it on first call.
    pub fn extractor(&self) -> &Arc<PatternExtractor> {
        self.extractor.get_or_init(|| Arc::new(PatternExtractor::new(&self.code)))
    }

    fn classes(&self) -> &Arc<Vec<SiteClass>> {
        self.qubit_classes.get_or_init(|| Arc::new(SiteClass::per_qubit(&self.code)))
    }

    fn coloring(&self) -> &Arc<Coloring> {
        self.coloring.get_or_init(|| Arc::new(self.code.interaction_graph().greedy_coloring()))
    }

    /// Returns a factory for the *same code* under a different GLADIATOR
    /// calibration, sharing every calibration-independent artifact that this
    /// factory has already built (pattern extractor, site classes, colouring —
    /// all derived from the code alone). Only the offline model, which depends
    /// on the calibration, is rebuilt on demand; when `config` equals the
    /// current calibration even the model is shared.
    ///
    /// This is what lets a parameter sweep walk an error-rate grid without
    /// re-deriving the code structure for every cell.
    #[must_use]
    pub fn recalibrated(&self, config: &GladiatorConfig) -> PolicyFactory {
        fn carry_over<T>(lock: &OnceLock<Arc<T>>) -> OnceLock<Arc<T>> {
            let shared = OnceLock::new();
            if let Some(artifact) = lock.get() {
                let _ = shared.set(Arc::clone(artifact));
            }
            shared
        }
        PolicyFactory {
            code: self.code.clone(),
            config: *config,
            extractor: carry_over(&self.extractor),
            model: if self.config == *config { carry_over(&self.model) } else { OnceLock::new() },
            qubit_classes: carry_over(&self.qubit_classes),
            coloring: carry_over(&self.coloring),
        }
    }

    /// Builds a boxed policy of the requested kind over the shared artifacts.
    #[must_use]
    pub fn build(&self, kind: PolicyKind) -> Box<dyn LeakagePolicy + Send> {
        let gladiator = |use_mlr: bool, deferred: bool| {
            GladiatorPolicy::from_shared(
                Arc::clone(self.model()),
                Arc::clone(self.extractor()),
                Arc::clone(self.classes()),
                use_mlr,
                deferred,
            )
        };
        match kind {
            PolicyKind::NoLrc => Box::new(NeverLrc),
            PolicyKind::AlwaysLrc => Box::new(AlwaysLrc::new(&self.code)),
            PolicyKind::Staggered => Box::new(StaggeredLrc::from_shared(
                Arc::clone(self.coloring()),
                self.code.num_checks(),
            )),
            PolicyKind::MlrOnly => Box::new(MlrOnly::from_shared(Arc::clone(self.extractor()))),
            PolicyKind::Eraser => {
                Box::new(EraserPolicy::from_shared(Arc::clone(self.extractor()), false))
            }
            PolicyKind::EraserM => {
                Box::new(EraserPolicy::from_shared(Arc::clone(self.extractor()), true))
            }
            PolicyKind::Gladiator => Box::new(gladiator(false, false)),
            PolicyKind::GladiatorM => Box::new(gladiator(true, false)),
            PolicyKind::GladiatorD => Box::new(gladiator(false, true)),
            PolicyKind::GladiatorDM => Box::new(gladiator(true, true)),
            PolicyKind::Ideal => Box::new(IdealOracle::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_sim::{NoiseParams, Simulator};
    use std::sync::Arc;

    #[test]
    fn every_kind_builds_and_reports_its_label() {
        let code = Code::rotated_surface(3);
        let config = GladiatorConfig::default();
        for kind in PolicyKind::ALL {
            let policy = build_policy(kind, &code, &config);
            assert_eq!(policy.name(), kind.label(), "{kind:?}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PolicyKind::ALL.len());
    }

    #[test]
    fn mlr_flag_matches_variants() {
        assert!(PolicyKind::EraserM.uses_mlr());
        assert!(PolicyKind::GladiatorDM.uses_mlr());
        assert!(!PolicyKind::Gladiator.uses_mlr());
        assert!(!PolicyKind::AlwaysLrc.uses_mlr());
    }

    #[test]
    fn every_policy_completes_a_short_run_on_every_code_family() {
        let config = GladiatorConfig::default();
        let noise = NoiseParams::default();
        for code in [Code::rotated_surface(3), Code::color_666(3), Code::bpc(7)] {
            for kind in PolicyKind::ALL {
                let mut policy = build_policy(kind, &code, &config);
                let mut sim = Simulator::new(&code, noise, 3);
                let run = sim.run_with_policy(policy.as_mut(), 4);
                assert_eq!(run.num_rounds(), 4, "{kind:?} on {}", code.name());
            }
        }
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(format!("{}", PolicyKind::GladiatorM), "gladiator+m");
    }

    #[test]
    fn factory_builds_the_offline_model_once_and_shares_it() {
        let code = Code::rotated_surface(3);
        let factory = PolicyFactory::new(&code, &GladiatorConfig::default());
        let first = factory.build(PolicyKind::GladiatorM);
        let second = factory.build(PolicyKind::GladiatorDM);
        drop((first, second));
        // Both policies must hold the exact same model allocation as the factory.
        let model = Arc::clone(factory.model());
        // factory itself + our clone = baseline of 2; each live gladiator policy
        // adds exactly one more strong count, never a fresh model.
        let before = Arc::strong_count(&model);
        let third = factory.build(PolicyKind::Gladiator);
        assert_eq!(Arc::strong_count(&model), before + 1);
        drop(third);
        assert_eq!(Arc::strong_count(&model), before);
    }

    #[test]
    fn factory_policies_share_the_extractor_across_kinds() {
        let code = Code::color_666(3);
        let factory = PolicyFactory::new(&code, &GladiatorConfig::default());
        let extractor = Arc::clone(factory.extractor());
        let baseline = Arc::strong_count(&extractor);
        let _eraser = factory.build(PolicyKind::EraserM);
        let _mlr = factory.build(PolicyKind::MlrOnly);
        let _glad = factory.build(PolicyKind::GladiatorM);
        assert_eq!(Arc::strong_count(&extractor), baseline + 3);
    }

    #[test]
    fn factory_policies_decide_identically_to_the_legacy_path() {
        let config = GladiatorConfig::default();
        let noise = NoiseParams::default();
        for code in [Code::rotated_surface(3), Code::color_666(3)] {
            let factory = PolicyFactory::new(&code, &config);
            for kind in PolicyKind::ALL {
                let mut legacy = build_policy(kind, &code, &config);
                let legacy_run =
                    Simulator::new(&code, noise, 17).run_with_policy(legacy.as_mut(), 12);
                let mut shared = factory.build(kind);
                let shared_run =
                    Simulator::new(&code, noise, 17).run_with_policy(shared.as_mut(), 12);
                assert_eq!(legacy_run, shared_run, "{kind:?} on {}", code.name());
            }
        }
    }

    #[test]
    fn from_label_inverts_label_for_every_kind() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(PolicyKind::from_label("no-such-policy"), None);
    }

    #[test]
    fn recalibrated_shares_code_derived_artifacts_but_not_the_model() {
        let code = Code::rotated_surface(3);
        let base_config = GladiatorConfig::default();
        let factory = PolicyFactory::new(&code, &base_config);
        // Force everything the base factory can share.
        let _ = factory.build(PolicyKind::GladiatorM);
        let _ = factory.build(PolicyKind::Staggered);
        let other_config = base_config.with_error_rate(1e-4);
        let shifted = factory.recalibrated(&other_config);
        assert_eq!(shifted.config(), &other_config);
        assert!(Arc::ptr_eq(factory.extractor(), shifted.extractor()));
        assert!(
            !Arc::ptr_eq(factory.model(), shifted.model()),
            "a different calibration must rebuild the offline model"
        );
    }

    #[test]
    fn recalibrated_with_equal_config_shares_the_model_too() {
        let code = Code::rotated_surface(3);
        let config = GladiatorConfig::default();
        let factory = PolicyFactory::new(&code, &config);
        let _ = factory.build(PolicyKind::GladiatorM);
        let same = factory.recalibrated(&config);
        assert!(Arc::ptr_eq(factory.model(), same.model()));
        assert!(Arc::ptr_eq(factory.extractor(), same.extractor()));
    }

    #[test]
    fn recalibrated_policies_match_a_fresh_factory_bit_for_bit() {
        let code = Code::rotated_surface(3);
        let base = PolicyFactory::new(&code, &GladiatorConfig::default());
        let _ = base.build(PolicyKind::GladiatorM);
        let config = GladiatorConfig::default().with_error_rate(1e-4).with_leakage_ratio(1.0);
        let shared = base.recalibrated(&config);
        let fresh = PolicyFactory::new(&code, &config);
        let noise = NoiseParams::default();
        for kind in PolicyKind::ALL {
            let mut from_shared = shared.build(kind);
            let shared_run =
                Simulator::new(&code, noise, 41).run_with_policy(from_shared.as_mut(), 10);
            let mut from_fresh = fresh.build(kind);
            let fresh_run =
                Simulator::new(&code, noise, 41).run_with_policy(from_fresh.as_mut(), 10);
            assert_eq!(shared_run, fresh_run, "{kind:?}");
        }
    }

    #[test]
    fn factory_policies_are_reusable_after_reset() {
        let code = Code::rotated_surface(3);
        let factory = PolicyFactory::new(&code, &GladiatorConfig::default());
        let noise = NoiseParams::default();
        for kind in PolicyKind::ALL {
            let mut policy = factory.build(kind);
            let mut sim = Simulator::new(&code, noise, 23);
            let first = sim.run_with_policy(policy.as_mut(), 10);
            policy.reset();
            sim.reseed(23);
            let second = sim.run_with_policy(policy.as_mut(), 10);
            assert_eq!(first, second, "{kind:?} must be bit-identical after reset");
        }
    }
}
