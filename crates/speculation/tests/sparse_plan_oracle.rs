//! Differential oracle for the sparse planners: every syndrome-driven policy must plan
//! exactly the [`LrcRequest`] of the original dense planner, kept below verbatim
//! (against the public `PatternExtractor`/`GladiatorModel` API) as the reference.
//! The dense planners build every data qubit's pattern every round; the policies only
//! classify the qubits next to a fired site, plus those whose table flags the
//! all-zero pattern. Every schedule, report and corpus rests on that identity.

use std::sync::Arc;

use gladiator::labeling::eraser_flags;
use gladiator::{GladiatorConfig, GladiatorModel, SiteClass};
use leakage_speculation::{PatternExtractor, PolicyFactory, PolicyKind};
use leaky_sim::{LeakagePolicy, LrcRequest, NoiseParams, PolicyContext, RoundView, Simulator};
use qec_codes::{Code, DataQubitId};

/// The seven policies that plan from the syndrome.
const SYNDROME_DRIVEN: [PolicyKind; 7] = [
    PolicyKind::MlrOnly,
    PolicyKind::Eraser,
    PolicyKind::EraserM,
    PolicyKind::Gladiator,
    PolicyKind::GladiatorM,
    PolicyKind::GladiatorD,
    PolicyKind::GladiatorDM,
];

fn mlr_requests(record: RoundView<'_>) -> Vec<usize> {
    record.mlr_leak_flags().iter().enumerate().filter_map(|(c, flag)| flag.then_some(c)).collect()
}

/// Reference planners: every data qubit's pattern, every round.
enum Dense {
    Gladiator {
        model: Arc<GladiatorModel>,
        extractor: Arc<PatternExtractor>,
        classes: Vec<SiteClass>,
        uses_window: Vec<bool>,
        use_mlr: bool,
    },
    Eraser {
        extractor: Arc<PatternExtractor>,
        use_mlr: bool,
    },
    MlrOnly {
        extractor: Arc<PatternExtractor>,
    },
}

impl Dense {
    fn new(kind: PolicyKind, code: &Code, factory: &PolicyFactory) -> Self {
        let extractor = Arc::clone(factory.extractor());
        let gladiator = |use_mlr: bool, deferred: bool| {
            let model = Arc::clone(factory.model());
            let classes = SiteClass::per_qubit(code);
            let uses_window = classes
                .iter()
                .map(|class| {
                    deferred
                        || model.class_table(class).map_or(true, |table| table.flagged_count() == 0)
                })
                .collect();
            Dense::Gladiator {
                model,
                extractor: Arc::clone(&extractor),
                classes,
                uses_window,
                use_mlr,
            }
        };
        match kind {
            PolicyKind::MlrOnly => Dense::MlrOnly { extractor },
            PolicyKind::Eraser => Dense::Eraser { extractor, use_mlr: false },
            PolicyKind::EraserM => Dense::Eraser { extractor, use_mlr: true },
            PolicyKind::Gladiator => gladiator(false, false),
            PolicyKind::GladiatorM => gladiator(true, false),
            PolicyKind::GladiatorD => gladiator(false, true),
            PolicyKind::GladiatorDM => gladiator(true, true),
            other => panic!("{other} does not plan from the syndrome"),
        }
    }

    fn plan(&self, ctx: &PolicyContext<'_>) -> LrcRequest {
        let Some(last) = ctx.last_round() else {
            return LrcRequest::none();
        };
        match self {
            Dense::Gladiator { model, extractor, classes, uses_window, use_mlr } => {
                let current = extractor.patterns(last.detectors());
                let previous = if uses_window.iter().any(|&w| w) {
                    ctx.round_back(1).map(|r| extractor.patterns(r.detectors()))
                } else {
                    None
                };
                let mut data = Vec::new();
                for (q, &pattern) in current.iter().enumerate() {
                    let class = &classes[q];
                    if class.width == 0 {
                        continue;
                    }
                    let flagged = if uses_window[q] {
                        match &previous {
                            Some(prev) => model.classify_two_round_class(class, prev[q], pattern),
                            None => false,
                        }
                    } else {
                        model.classify_class(class, pattern)
                    };
                    if flagged {
                        data.push(q);
                    }
                }
                let ancilla = if *use_mlr { mlr_requests(last) } else { Vec::new() };
                LrcRequest { data, ancilla }
            }
            Dense::Eraser { extractor, use_mlr } => {
                let patterns = extractor.patterns(last.detectors());
                let data = patterns
                    .iter()
                    .enumerate()
                    .filter(|&(q, &pattern)| eraser_flags(extractor.width(q), pattern))
                    .map(|(q, _)| q)
                    .collect();
                let ancilla = if *use_mlr { mlr_requests(last) } else { Vec::new() };
                LrcRequest { data, ancilla }
            }
            Dense::MlrOnly { extractor } => {
                let ancilla = mlr_requests(last);
                let site_flags = extractor.site_flags(last.mlr_leak_flags());
                let data = (0..extractor.num_data())
                    .filter(|&q| extractor.sites_of(q).iter().any(|&s| site_flags[s]))
                    .collect();
                LrcRequest { data, ancilla }
            }
        }
    }

    /// The qubits the dense planner flags in a round where no site fired, given
    /// two rounds of history.
    fn zero_flagged(&self) -> Vec<DataQubitId> {
        let Dense::Gladiator { model, classes, uses_window, .. } = self else {
            return Vec::new();
        };
        (0..classes.len())
            .filter(|&q| {
                let class = &classes[q];
                class.width > 0
                    && if uses_window[q] {
                        model.classify_two_round_class(class, 0, 0)
                    } else {
                        model.classify_class(class, 0)
                    }
            })
            .collect()
    }
}

/// Plans with the policy under test and asserts, round by round, that the dense
/// reference plans the same request.
struct Checked {
    policy: Box<dyn LeakagePolicy + Send>,
    reference: Dense,
    label: String,
    plans: usize,
}

impl LeakagePolicy for Checked {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn plan_lrcs(&mut self, ctx: &PolicyContext<'_>) -> LrcRequest {
        let request = self.policy.plan_lrcs(ctx);
        assert_eq!(request, self.reference.plan(ctx), "{} round {}", self.label, ctx.round);
        self.plans += 1;
        request
    }
}

/// Runs `shots` closed-loop shots of every syndrome-driven kind on `code`, with the
/// model calibrated by `config` and the simulator under `p`, `lr`, checking every
/// plan. Returns the zero-flag set of each kind's reference.
fn check(code: &Code, config: GladiatorConfig, p: f64, lr: f64, shots: u64) -> Vec<usize> {
    let factory = PolicyFactory::new(code, &config);
    let rounds = 12;
    let mut zero_flag_sizes = Vec::new();
    for kind in SYNDROME_DRIVEN {
        let noise = NoiseParams::builder()
            .physical_error_rate(p)
            .leakage_ratio(lr)
            .mlr_enabled(kind.uses_mlr())
            .build();
        let reference = Dense::new(kind, code, &factory);
        zero_flag_sizes.push(reference.zero_flagged().len());
        let mut checked = Checked {
            policy: factory.build(kind),
            reference,
            label: format!("{kind} on {} at p={p} lr={lr}", code.name()),
            plans: 0,
        };
        let mut sim = Simulator::new(code, noise, 0);
        for shot in 0..shots {
            sim.reseed_for_shot(2026, shot, true);
            checked.policy.reset();
            let _ = sim.run_with_policy(&mut checked, rounds);
        }
        assert_eq!(checked.plans, rounds * shots as usize, "{}", checked.label);
    }
    zero_flag_sizes
}

#[test]
fn sparse_plans_equal_dense_plans_on_every_family_at_the_default_calibration() {
    let config = GladiatorConfig::default();
    for code in [Code::rotated_surface(5), Code::color_666(5), Code::hgp(2), Code::bpc(14)] {
        for (p, lr) in [(1e-3, 0.1), (1e-2, 1.0)] {
            check(&code, config, p, lr, 6);
        }
    }
}

#[test]
fn sparse_plans_equal_dense_plans_where_the_all_zero_pattern_flags() {
    for (code, p, lr) in [
        (Code::color_666(5), 0.05, 1.0),
        (Code::color_666(5), 0.1, 2.0),
        (Code::rotated_surface(5), 0.2, 5.0),
    ] {
        let config = GladiatorConfig::default().with_error_rate(p).with_leakage_ratio(lr);
        let zero_flag_sizes = check(&code, config, p, lr, 6);
        // The GLADIATOR kinds are the last four; at least one must flag the all-zero
        // pattern, or this calibration would not exercise the zero-flag path.
        assert!(
            zero_flag_sizes[3..].iter().any(|&size| size > 0),
            "{} at p={p} lr={lr} flags no all-zero pattern: {zero_flag_sizes:?}",
            code.name()
        );
    }
}
