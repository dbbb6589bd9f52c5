//! Quantum error-correcting code families for the GLADIATOR leakage-speculation study.
//!
//! This crate provides the *static* description of every code evaluated in the paper
//! "Accurate Leakage Speculation for Quantum Error Correction" (MICRO 2025):
//!
//! * the rotated **surface code** (`Code::rotated_surface`),
//! * the triangular **6.6.6 color code** (`Code::color_666`),
//! * **hypergraph-product (HGP)** codes built from classical LDPC seeds (`Code::hgp`),
//! * **balanced-product cyclic (BPC)** two-block circulant codes (`Code::bpc`).
//!
//! [`CodeFamily`] keys the four families by label, each with one size parameter:
//! [`CodeFamily::build`] constructs an instance and [`CodeFamily::code_name`] names it
//! without building it.
//!
//! A [`Code`] is a CSS stabilizer code: a set of data qubits plus X- and Z-type
//! [`Check`]s, each with an ordered support that doubles as the CNOT schedule used by
//! the syndrome-extraction circuit. From a `Code` the crate derives the structures the
//! rest of the workspace needs:
//!
//! * [`SiteAdjacency`] — for every data qubit, its adjacent parity qubits in CNOT
//!   order (the "A1..A4" pattern bits of the paper; faces on the color code),
//! * [`InteractionGraph`] — the qubit interaction graph with a greedy coloring used by
//!   the *Staggered Always-LRC* open-loop policy,
//! * [`MatchingGraph`] — the space–time decoding graph consumed by the union-find
//!   decoder in `qec-decoder`.
//!
//! # Example
//!
//! ```
//! use qec_codes::{Code, CheckBasis};
//!
//! let code = Code::rotated_surface(5);
//! assert_eq!(code.num_data(), 25);
//! assert_eq!(code.num_checks(), 24);
//! let adj = code.site_adjacency();
//! // every data qubit of the surface code touches between 2 and 4 parity qubits
//! assert!(adj.degrees().iter().all(|&deg| (2..=4).contains(&deg)));
//! let x_checks = code.checks_of(CheckBasis::X).count();
//! assert_eq!(x_checks, 12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bpc;
pub mod code;
pub mod color;
pub mod graph;
pub mod hgp;
pub mod linalg;
pub mod matching;
pub mod sites;
pub mod surface;

pub use code::{Check, CheckBasis, CheckId, Code, CodeFamily, DataQubitId};
pub use graph::{Coloring, InteractionGraph};
pub use linalg::BinaryMatrix;
pub use matching::{MatchingGraph, SpaceTimeNode};
pub use sites::{ParitySites, SiteAdjEntry, SiteAdjacency, SiteId};
