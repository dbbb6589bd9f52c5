//! Space–time syndrome decoding for the surface code via union–find.
//!
//! The GLADIATOR paper reports logical error rates (LER) for the rotated surface code
//! under several leakage-mitigation policies (Figures 4b, 12 and 13). The authors use a
//! matching decoder on Stim detector graphs; this crate provides the equivalent
//! substrate built from scratch:
//!
//! * [`DecoderBackend`] — the backend seam every consumer decodes through, with
//!   [`DecoderKind`] as the serializable selector (`uf`, `lookup`),
//! * [`UnionFindDecoder`] — the union–find decoder of Delfosse & Nickerson on the
//!   [`qec_codes::MatchingGraph`] space–time graph: uniform half-edge growth of the
//!   active clusters' frontiers only (every edge weighs the same), then peeling,
//! * [`LookupDecoder`] — an exact maximum-likelihood lookup table for d=3
//!   surface/color codes, enumerated offline over every error pattern,
//! * [`syndrome`] — helpers that turn a simulated [`leaky_sim::RunRecord`] into
//!   detection events (including the final perfect measurement layer) and evaluate
//!   whether the decoded correction leaves a logical error.
//!
//! Union–find belongs to the same threshold class as minimum-weight matching; the
//! paper's comparisons are *relative* across policies, which this decoder preserves.
//!
//! # Example
//!
//! ```
//! use qec_codes::{Code, CheckBasis, MatchingGraph};
//! use qec_decoder::UnionFindDecoder;
//!
//! let code = Code::rotated_surface(3);
//! let graph = MatchingGraph::build(&code, CheckBasis::Z, 1);
//! let decoder = UnionFindDecoder::new(graph);
//! // no detection events -> empty correction
//! let correction = decoder.decode(&[]);
//! assert!(correction.data_qubits.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod cluster;
pub mod decoder;
pub mod lookup;
pub mod syndrome;

pub use backend::{DecoderBackend, DecoderKind};
pub use decoder::{Correction, UnionFindDecoder};
pub use lookup::LookupDecoder;
pub use syndrome::{detection_events, logical_failure, MemoryBasis};
