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
//!   healthy operand or, with probability `mobility`, leakage transport to that
//!   operand. The ≈50 % bit flip is an input calibrated by the paper's IBM
//!   measurement (Section 2.3): Figure 3(a) reads it back through this executor
//!   rather than predicting it,
//! * readout and reset errors, with optional **multi-level readout (MLR)** whose
//!   leaked-state misclassification is `mlr·p`,
//! * SWAP-based **leakage-reduction circuits (LRCs)** that clear leakage at the cost of
//!   extra depolarizing noise, possible re-leakage and added cycle latency.
//!
//! The simulator is *closed loop*: a [`LeakagePolicy`] (implemented in the
//! `leakage-speculation` crate) inspects the completed rounds of the shot's
//! [`RunRecord`] and schedules the LRCs applied at the start of the next round,
//! exactly like the leakage speculation block of Figure 2(c) in the paper.
//!
//! Every per-qubit and per-check flag — frames, leak flags, measurements,
//! detectors — is packed one bit per entry into `u64` words ([`bits`]). A shot's
//! [`RunRecord`] is one arena: every round's flags at a fixed stride in one word
//! vector, its LRC indices in one vector and its cycle times in another
//! ([`record`]). Rounds append in place, so a run reserved once for its round
//! count allocates nothing per round, and policies, scoring, decoders and the
//! trace codec read rounds through borrowed views ([`RoundView`]) and walk the
//! set bits of a flag vector ([`Bits::ones`]).
//!
//! Fixed-probability noise is drawn per *event*, not per opportunity: each round
//! starts one geometric-gap stream per distinct probability (`p`, `p_leak`,
//! `mlr_false_flag`), and each stream draws one `u64` per event from a survival
//! table built without libm (see [`rounds`]). Identical seeds give identical
//! bytes on every platform; the mapping from RNG stream to noise events is part
//! of the `.qtr` trace schema.
//!
//! A *leak-free* round, one with no qubit leaked after the LRC step and no leak
//! event, propagates its frames linearly and asks every trial in a fixed order, so
//! the executor walks its noise events instead of running the gate loop: it reads
//! each check's noiseless parity and applies each event's effect as the event
//! fires. The bytes and the RNG position are those of the full loop by
//! construction (the argument is in [`rounds`]); at the paper's operating point
//! most rounds of a mitigated run are leak-free, and most of those have no event
//! at all, so such a round costs its noiseless readout plus its few events.
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
//! assert_eq!(run.num_rounds(), 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bits;
pub mod frame;
pub mod noise;
pub mod pauli;
pub mod policy;
pub mod record;
pub mod rounds;
pub mod simulator;

pub use bits::{BitVec, Bits, BitsMut};
pub use frame::QubitFrames;
pub use noise::{NoiseParams, NoiseParamsBuilder};
pub use pauli::Pauli;
pub use policy::{GroundTruth, LeakagePolicy, LrcRequest, PolicyContext};
pub use record::{FinalFlagsMut, RoundFlagsMut, RoundView, Rounds, RunRecord};
pub use simulator::{Simulator, SimulatorCheckpoint};
