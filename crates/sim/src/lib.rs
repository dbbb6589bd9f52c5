//! Leakage-aware Pauli-frame stabilizer simulator.
//!
//! This crate implements the noisy QEC substrate the GLADIATOR paper evaluates on: a
//! Pauli-frame simulator for CSS stabilizer codes extended with a classical *leakage*
//! flag per physical qubit. It reproduces the circuit-level noise model of Section 6 of
//! the paper:
//!
//! * data depolarization and environment-induced leakage at the start of every round,
//! * two-qubit depolarizing noise and gate-induced leakage on every CNOT,
//! * malfunctioning CNOTs when an operand is leaked — a uniformly random Pauli on the
//!   healthy operand (the 50 % bit-flip signature measured on IBM hardware) or, with
//!   probability `mobility`, leakage transport to that operand,
//! * readout and reset errors, with optional **multi-level readout (MLR)** whose
//!   leaked-state misclassification is `mlr·p`,
//! * SWAP-based **leakage-reduction circuits (LRCs)** that clear leakage at the cost of
//!   extra depolarizing noise, possible re-leakage and added cycle latency.
//!
//! The simulator is *closed loop*: a [`LeakagePolicy`] (implemented in the
//! `leakage-speculation` crate) inspects each round's [`RoundRecord`] and schedules the
//! LRCs applied at the start of the next round, exactly like the leakage speculation
//! block of Figure 2(c) in the paper.
//!
//! Fixed-probability noise is drawn per *event*, not per opportunity: each round
//! starts one geometric-gap stream per distinct probability (`p`, `p_leak`,
//! `mlr_false_flag`), and each stream draws one `u64` per event from a survival
//! table built without libm (see [`rounds`]). Identical seeds give identical
//! bytes on every platform; the mapping from RNG stream to noise events is part
//! of the `.qtr` trace schema.
//!
//! # Example
//!
//! ```
//! use leaky_sim::{NoiseParams, Simulator, policy::NeverLrc};
//! use qec_codes::Code;
//!
//! let code = Code::rotated_surface(3);
//! let noise = NoiseParams::builder().physical_error_rate(1e-3).leakage_ratio(0.1).build();
//! let mut sim = Simulator::new(&code, noise, 42);
//! let run = sim.run_with_policy(&mut NeverLrc, 10);
//! assert_eq!(run.rounds.len(), 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod frame;
pub mod noise;
pub mod pauli;
pub mod policy;
pub mod record;
pub mod rounds;
pub mod simulator;

pub use frame::QubitFrames;
pub use noise::{NoiseParams, NoiseParamsBuilder};
pub use pauli::Pauli;
pub use policy::{GroundTruth, LeakagePolicy, LrcRequest, PolicyContext};
pub use record::{RoundRecord, RunRecord};
pub use simulator::{Simulator, SimulatorCheckpoint};
