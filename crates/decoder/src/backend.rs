//! The decoder-backend seam: one trait, many decoders, one corpus.
//!
//! Every consumer of decoding — live batch engines, corpus replay, the serve
//! daemon — works against [`DecoderBackend`] instead of a concrete decoder
//! type. A backend owns its *entire* pipeline: how a simulated
//! [`leaky_sim::RunRecord`] is turned into detection events (backends are free
//! to index events however they like; the indices are private to the backend)
//! and how those events become a [`Correction`]. This matters because the
//! union–find decoder needs a [`qec_codes::MatchingGraph`] that only exists
//! for matchable codes, while the exact lookup table works directly on check
//! parities and therefore also covers the d=3 color code.
//!
//! [`DecoderKind`] is the serializable selector threaded through sweep specs,
//! replay options, the serve protocol and the CLI. Its wire labels (`uf`,
//! `lookup`) are frozen: reports and serve requests spell decoders with these
//! strings.

use std::sync::Arc;

use leaky_sim::RunRecord;
use qec_codes::{CheckBasis, Code, CodeFamily, MatchingGraph};
use serde::{de, Deserialize, Serialize, Value};

use crate::decoder::{Correction, UnionFindDecoder};
use crate::lookup::LookupDecoder;
use crate::syndrome;

/// A space–time decoder for a Z-basis memory experiment.
///
/// Implementations are immutable once built and shared across worker threads,
/// hence the `Send + Sync` bound. The detection-event indices returned by
/// [`DecoderBackend::detection_events`] use a backend-private convention and
/// must only be fed back into the same backend's
/// [`decode`](DecoderBackend::decode).
pub trait DecoderBackend: Send + Sync + std::fmt::Debug {
    /// The frozen wire label of this backend (`"uf"`, `"lookup"`).
    fn label(&self) -> &'static str;

    /// Number of detector layers covered: the noisy rounds plus the final
    /// perfect-measurement layer (`rounds + 1`).
    fn layers(&self) -> usize;

    /// Extracts this backend's detection events from a simulated run.
    ///
    /// # Panics
    /// Panics if `run.num_rounds() + 1` differs from [`layers`](Self::layers).
    fn detection_events(&self, run: &RunRecord) -> Vec<usize>;

    /// Decodes a set of detection events into a data-qubit correction.
    fn decode(&self, detection_events: &[usize]) -> Correction;

    /// Convenience: extract events from `run` and decode them in one step.
    fn decode_run(&self, run: &RunRecord) -> Correction {
        self.decode(&self.detection_events(run))
    }
}

impl DecoderBackend for UnionFindDecoder {
    fn label(&self) -> &'static str {
        "uf"
    }

    fn layers(&self) -> usize {
        self.graph().rounds()
    }

    fn detection_events(&self, run: &RunRecord) -> Vec<usize> {
        syndrome::detection_events(run, self.graph())
    }

    fn decode(&self, detection_events: &[usize]) -> Correction {
        UnionFindDecoder::decode(self, detection_events)
    }
}

impl DecoderBackend for LookupDecoder {
    fn label(&self) -> &'static str {
        "lookup"
    }

    fn layers(&self) -> usize {
        LookupDecoder::layers(self)
    }

    fn detection_events(&self, run: &RunRecord) -> Vec<usize> {
        LookupDecoder::detection_events(self, run)
    }

    fn decode(&self, detection_events: &[usize]) -> Correction {
        LookupDecoder::decode(self, detection_events)
    }
}

/// Selector for a [`DecoderBackend`], as it travels through specs, reports,
/// serve requests and CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DecoderKind {
    /// Union–find (uniform half-edge growth) on the space–time matching graph.
    UnionFind,
    /// Exact maximum-likelihood lookup table (d=3 surface/color only).
    Lookup,
}

impl DecoderKind {
    /// Every known backend, in wire-label order.
    pub const ALL: [DecoderKind; 2] = [DecoderKind::UnionFind, DecoderKind::Lookup];

    /// The frozen wire label (`uf`, `lookup`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DecoderKind::UnionFind => "uf",
            DecoderKind::Lookup => "lookup",
        }
    }

    /// Parses a wire label; `None` for anything unknown.
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.label() == label)
    }

    /// Comma-separated list of every known label, for error messages.
    #[must_use]
    pub fn known_labels() -> String {
        Self::ALL.map(DecoderKind::label).join(", ")
    }

    /// Checks that this backend can decode the given code at all, without
    /// building anything.
    ///
    /// # Errors
    /// Returns an actionable message when the combination is unsupported:
    /// union–find needs a matchable code (every data qubit on at most two
    /// same-basis checks — surface yes, color/hgp/bpc no), the lookup table
    /// is enumerated only for d=3 surface/color.
    pub fn supports(self, family: CodeFamily, distance: usize) -> Result<(), String> {
        match self {
            DecoderKind::UnionFind => match family {
                CodeFamily::Surface => Ok(()),
                other => Err(format!(
                    "decoder `uf` needs a matchable code and `{other}` is not \
                     (data qubits touch more than two same-basis checks); \
                     at d=3 use `lookup` instead"
                )),
            },
            DecoderKind::Lookup => match family {
                CodeFamily::Surface | CodeFamily::Color if distance == 3 => Ok(()),
                CodeFamily::Surface | CodeFamily::Color => Err(format!(
                    "decoder `lookup` is exact only at distance 3 \
                     (got {family} d={distance}); use `uf` for larger distances"
                )),
                other => Err(format!(
                    "decoder `lookup` supports only the surface and color families \
                     at d=3 (got `{other}`); qLDPC families have no lookup table"
                )),
            },
        }
    }

    /// Builds the backend for `code` covering `layers` detector layers
    /// (`rounds + 1`, counting the final perfect-measurement layer).
    ///
    /// # Errors
    /// Returns the [`supports`](Self::supports) error when the combination is
    /// invalid, so callers never hit the matching-graph panic path.
    pub fn build(self, code: &Code, layers: usize) -> Result<Arc<dyn DecoderBackend>, String> {
        self.supports(code.family(), code.distance())?;
        match self {
            DecoderKind::UnionFind => {
                let graph = MatchingGraph::build(code, CheckBasis::Z, layers);
                Ok(Arc::new(UnionFindDecoder::new(graph)))
            }
            DecoderKind::Lookup => Ok(Arc::new(LookupDecoder::build(code, layers)?)),
        }
    }
}

/// Serializes as the frozen wire label.
impl Serialize for DecoderKind {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

/// Parses a wire label, rejecting unknown ones with an error that names the
/// known labels.
impl Deserialize for DecoderKind {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Str(label) => Self::from_label(label).ok_or_else(|| {
                de::expected(&format!("decoder label ({})", Self::known_labels()), value)
            }),
            other => Err(de::expected("decoder label string", other)),
        }
    }
}

impl std::fmt::Display for DecoderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in DecoderKind::ALL {
            assert_eq!(DecoderKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(DecoderKind::from_label("mwpm"), None);
        assert_eq!(DecoderKind::known_labels(), "uf, lookup");
    }

    #[test]
    fn supports_matrix() {
        use CodeFamily::*;
        assert!(DecoderKind::UnionFind.supports(Surface, 5).is_ok());
        assert!(DecoderKind::UnionFind.supports(Color, 3).is_err());
        assert!(DecoderKind::UnionFind.supports(Hgp, 4).is_err());
        assert!(DecoderKind::Lookup.supports(Surface, 3).is_ok());
        assert!(DecoderKind::Lookup.supports(Color, 3).is_ok());
        let err = DecoderKind::Lookup.supports(Surface, 5).unwrap_err();
        assert!(err.contains("distance 3"), "unhelpful error: {err}");
        let err = DecoderKind::Lookup.supports(Bpc, 7).unwrap_err();
        assert!(err.contains("surface and color"), "unhelpful error: {err}");
    }

    #[test]
    fn build_rejects_unsupported_without_panicking() {
        let color = Code::color_666(5);
        assert!(DecoderKind::UnionFind.build(&color, 4).is_err());
        assert!(DecoderKind::Lookup.build(&color, 4).is_err());
    }

    #[test]
    fn build_produces_labelled_backends() {
        let code = Code::rotated_surface(3);
        let uf = DecoderKind::UnionFind.build(&code, 3).unwrap();
        assert_eq!(uf.label(), "uf");
        assert_eq!(uf.layers(), 3);
        let lookup = DecoderKind::Lookup.build(&code, 3).unwrap();
        assert_eq!(lookup.label(), "lookup");
        assert_eq!(lookup.layers(), 3);
    }
}
