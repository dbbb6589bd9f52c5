//! Runtime leakage-speculation policies.
//!
//! This crate implements every leakage-mitigation strategy compared in the GLADIATOR
//! paper as a [`leaky_sim::LeakagePolicy`], so that the simulator can drive them in a
//! closed loop:
//!
//! | policy | type | section |
//! |---|---|---|
//! | [`NeverLrc`](leaky_sim::policy::NeverLrc) | no mitigation (NO-LRC baseline) | §7.3 |
//! | [`AlwaysLrc`] | open loop, every qubit every round | §3.2 |
//! | [`StaggeredLrc`] | open loop, graph-coloured round-robin | §3.5 |
//! | [`MlrOnly`] | closed loop, multi-level readout only | §3.4 |
//! | [`EraserPolicy`] | closed loop, ≥50 % bit-flip heuristic (optionally +M) | §3.2 |
//! | [`GladiatorPolicy`] | closed loop, offline pattern tables (optionally +M / -D) | §4 |
//! | [`IdealOracle`] | oracle upper bound ("IDEAL") | §7.2 |
//!
//! The syndrome-driven policies (ERASER, MLR-only and the GLADIATOR variants) read
//! per-data-qubit syndrome patterns through the [`PatternExtractor`], which groups
//! checks into physical parity sites and orders them by CNOT time exactly as the
//! paper's data-parity adjacency generator does. They plan sparsely, like the paper's
//! hardware lookup: the extractor's inverse adjacency (check → site → adjacent
//! qubits) takes them from a round's fired checks to the few qubits whose pattern is
//! not all-zero, so a plan costs in proportion to detection events, not qubits.
//! GLADIATOR also classifies the qubits whose own table flags the all-zero pattern,
//! computed once per policy. The IDEAL oracle reads the ground-truth leak flags
//! instead, and the open-loop policies read nothing.
//!
//! # Example
//!
//! ```
//! use leakage_speculation::{PolicyKind, build_policy};
//! use leaky_sim::{NoiseParams, Simulator};
//! use gladiator::GladiatorConfig;
//! use qec_codes::Code;
//!
//! let code = Code::rotated_surface(3);
//! let noise = NoiseParams::default();
//! let mut policy = build_policy(PolicyKind::GladiatorM, &code, &GladiatorConfig::default());
//! let mut sim = Simulator::new(&code, noise, 7);
//! let run = sim.run_with_policy(policy.as_mut(), 20);
//! assert_eq!(run.num_rounds(), 20);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod factory;
pub mod gladiator_policy;
pub mod heuristics;
pub mod ideal;
pub mod open_loop;
pub mod patterns;

pub use factory::{build_policy, PolicyFactory, PolicyKind};
pub use gladiator_policy::GladiatorPolicy;
pub use heuristics::{EraserPolicy, MlrOnly};
pub use ideal::IdealOracle;
pub use open_loop::{AlwaysLrc, StaggeredLrc};
pub use patterns::PatternExtractor;
