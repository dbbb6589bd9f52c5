//! Umbrella crate for the GLADIATOR leakage-speculation reproduction.
//!
//! The actual functionality lives in the workspace crates; this package re-exports them
//! under one roof so the examples and cross-crate integration tests have a single
//! dependency, and so downstream users can depend on `gladiator-suite` alone.
//!
//! * [`codes`] — code families (surface, color, HGP, BPC) and their structure.
//! * [`sim`] — the leakage-aware Pauli-frame simulator and noise model.
//! * [`decoder`] — space–time union-find decoding.
//! * [`model`] — the GLADIATOR offline model (one windowed fault enumeration, pattern
//!   tables, Boolean minimization, hardware cost, mobility estimation).
//! * [`policies`] — the runtime speculation policies.
//! * [`experiments`] — metrics, the Monte-Carlo harness and per-figure/table runners.
//! * [`serve`] — the long-running speculation-evaluation daemon and its wire
//!   protocol (see `docs/SERVE_PROTOCOL.md`).
//! * [`cluster`] — sharded corpus serving: the shard-map registry and the
//!   router daemon fanning queries out over replica daemons (see
//!   `docs/CLUSTER.md`).
//!
//! # Quickstart
//!
//! ```
//! use gladiator_suite::prelude::*;
//!
//! let code = Code::rotated_surface(3);
//! let noise = NoiseParams::default();
//! let mut policy = build_policy(PolicyKind::GladiatorM, &code, &GladiatorConfig::default());
//! let mut sim = Simulator::new(&code, noise, 1);
//! let run = sim.run_with_policy(policy.as_mut(), 10);
//! assert_eq!(run.num_rounds(), 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gladiator as model;
pub use leakage_speculation as policies;
pub use leaky_sim as sim;
pub use qec_cluster as cluster;
pub use qec_codes as codes;
pub use qec_decoder as decoder;
pub use qec_experiments as experiments;
pub use qec_serve as serve;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use gladiator::{GladiatorConfig, GladiatorModel};
    pub use leakage_speculation::{build_policy, PolicyFactory, PolicyKind};
    pub use leaky_sim::{LeakagePolicy, LrcRequest, NoiseParams, RunRecord, Simulator};
    pub use qec_codes::{CheckBasis, Code, MatchingGraph};
    pub use qec_decoder::{detection_events, logical_failure, MemoryBasis, UnionFindDecoder};
    pub use qec_experiments::engine::BatchEngine;
    pub use qec_experiments::harness::{run_policy_experiment, ExperimentSpec};
    pub use qec_experiments::runners::Scale;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_an_end_to_end_path() {
        let code = Code::rotated_surface(3);
        let spec = ExperimentSpec::quick(PolicyKind::EraserM).with_shots(2).with_rounds(5);
        let result = run_policy_experiment(&code, &spec);
        assert_eq!(result.shots, 2);
    }
}
