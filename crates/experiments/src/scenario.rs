//! Declarative workload descriptions.
//!
//! A [`Scenario`] names one `(code family, distance, rounds, error rate,
//! leakage ratio, policy, shots, seed)` combination — everything needed to run
//! one Monte-Carlo cell without writing a new runner function. Scenarios are
//! plain serializable data: sweep specs expand into them
//! ([`crate::sweep::SweepSpec`]), the `repro` binary parses them from JSON or
//! grid flags, and [`crate::sweep::run_scenarios`] executes batches of them on
//! the [`crate::engine::BatchEngine`] with shared artifacts.

use serde::{de, ser, Deserialize, Serialize, Value};

use gladiator::GladiatorConfig;
use leakage_speculation::PolicyKind;
use leaky_sim::NoiseParams;
use qec_codes::Code;
use qec_decoder::DecoderKind;

use crate::harness::ExperimentSpec;

/// Parses a decoder selector from its wire label, rejecting unknown labels
/// with an error that names the known ones.
pub(crate) fn decoder_from_value(value: &Value) -> Result<DecoderKind, de::Error> {
    match value {
        Value::Str(label) => DecoderKind::from_label(label).ok_or_else(|| {
            de::expected(&format!("decoder label ({})", DecoderKind::known_labels()), value)
        }),
        other => Err(de::expected("decoder label string", other)),
    }
}

/// The code families the workspace can construct, keyed for sweep grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CodeFamily {
    /// Rotated surface code; the size parameter is the (odd) distance `d ≥ 3`.
    Surface,
    /// Triangular 6.6.6 color code; the size parameter is the (odd) distance `d ≥ 3`.
    Color,
    /// Hypergraph-product code from a quasi-cyclic LDPC seed; the size
    /// parameter is the seed circulant size `l ≥ 2`.
    Hgp,
    /// Bivariate-polynomial (BPC) qLDPC code; the size parameter is the
    /// circulant size `l`, a positive multiple of 7.
    Bpc,
}

impl CodeFamily {
    /// Every family, in sweep-grid listing order.
    pub const ALL: [CodeFamily; 4] =
        [CodeFamily::Surface, CodeFamily::Color, CodeFamily::Hgp, CodeFamily::Bpc];

    /// The lowercase name used in grids, reports and scenario ids.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CodeFamily::Surface => "surface",
            CodeFamily::Color => "color",
            CodeFamily::Hgp => "hgp",
            CodeFamily::Bpc => "bpc",
        }
    }

    /// Parses a grid label back into a family (inverse of [`CodeFamily::label`]).
    #[must_use]
    pub fn from_label(label: &str) -> Option<CodeFamily> {
        CodeFamily::ALL.iter().copied().find(|family| family.label() == label)
    }

    /// Checks that `size` is a valid size parameter for this family.
    ///
    /// # Errors
    /// Returns a message naming the constraint the size violates.
    pub fn validate_size(self, size: usize) -> Result<(), String> {
        let ok = match self {
            CodeFamily::Surface | CodeFamily::Color => size >= 3 && size % 2 == 1,
            CodeFamily::Hgp => size >= 2,
            CodeFamily::Bpc => size > 0 && size % 7 == 0,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} does not admit size {size} (surface/color need odd d >= 3, \
                 hgp needs l >= 2, bpc needs a positive multiple of 7)",
                self.label()
            ))
        }
    }

    /// The [`qec_codes::CodeFamily`] this grid family constructs, used for
    /// decoder-backend compatibility checks.
    #[must_use]
    pub fn qec_family(self) -> qec_codes::CodeFamily {
        match self {
            CodeFamily::Surface => qec_codes::CodeFamily::RotatedSurface,
            CodeFamily::Color => qec_codes::CodeFamily::Color666,
            CodeFamily::Hgp => qec_codes::CodeFamily::Hgp,
            CodeFamily::Bpc => qec_codes::CodeFamily::Bpc,
        }
    }

    /// Builds the concrete code instance of this family at `size`.
    ///
    /// # Panics
    /// Panics when `size` violates the family's constraint; call
    /// [`CodeFamily::validate_size`] first for a recoverable check.
    #[must_use]
    pub fn build(self, size: usize) -> Code {
        match self {
            CodeFamily::Surface => Code::rotated_surface(size),
            CodeFamily::Color => Code::color_666(size),
            CodeFamily::Hgp => Code::hgp(size),
            CodeFamily::Bpc => Code::bpc(size),
        }
    }
}

/// One fully-specified Monte-Carlo workload cell.
///
/// `distance` is the family's size parameter (see [`CodeFamily`]). The derived
/// [`ExperimentSpec`] always uses leakage sampling and a GLADIATOR calibration
/// derived from `(p, leakage_ratio)`, matching the paper runners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Code family of the cell.
    pub code: CodeFamily,
    /// Family size parameter (code distance for surface/color).
    pub distance: usize,
    /// QEC rounds per shot.
    pub rounds: usize,
    /// Physical error rate `p`.
    pub p: f64,
    /// Leakage ratio `lr` (`p_leak = lr · p`).
    pub leakage_ratio: f64,
    /// Leakage-mitigation policy under test.
    pub policy: PolicyKind,
    /// Monte-Carlo shots.
    pub shots: usize,
    /// Base RNG seed (shot `i` uses `seed + i`).
    pub seed: u64,
    /// Whether to decode each shot and report a logical error rate.
    pub decode: bool,
    /// Decoder backend for the decoded LER. `None` is the legacy union-find
    /// default; the field is omitted from serialized scenarios when `None`,
    /// so reports without a decoder axis keep their pre-backend bytes (the
    /// additive-field rule — the schema version does not bump).
    pub decoder: Option<DecoderKind>,
}

// Hand-written (not derived) so the optional `decoder` field is *omitted*
// when `None` rather than serialized as `null`: scenarios without a decoder
// axis must stay byte-identical to pre-backend reports.
impl Serialize for Scenario {
    fn to_value(&self) -> Value {
        let mut composer = ser::StructComposer::new();
        composer.field("code", &self.code);
        composer.field("distance", &self.distance);
        composer.field("rounds", &self.rounds);
        composer.field("p", &self.p);
        composer.field("leakage_ratio", &self.leakage_ratio);
        composer.field("policy", &self.policy);
        composer.field("shots", &self.shots);
        composer.field("seed", &self.seed);
        composer.field("decode", &self.decode);
        if let Some(kind) = self.decoder {
            composer.field("decoder", &kind.label());
        }
        composer.end()
    }
}

impl Deserialize for Scenario {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        let fields = de::as_object(value, "Scenario")?;
        let decoder = match de::field::<Option<Value>>(fields, "Scenario", "decoder")? {
            None => None,
            Some(value) => Some(decoder_from_value(&value)?),
        };
        Ok(Scenario {
            code: de::field(fields, "Scenario", "code")?,
            distance: de::field(fields, "Scenario", "distance")?,
            rounds: de::field(fields, "Scenario", "rounds")?,
            p: de::field(fields, "Scenario", "p")?,
            leakage_ratio: de::field(fields, "Scenario", "leakage_ratio")?,
            policy: de::field(fields, "Scenario", "policy")?,
            shots: de::field(fields, "Scenario", "shots")?,
            seed: de::field(fields, "Scenario", "seed")?,
            decode: de::field(fields, "Scenario", "decode")?,
            decoder,
        })
    }
}

impl Scenario {
    /// Builds the concrete code instance the scenario runs on.
    #[must_use]
    pub fn build_code(&self) -> Code {
        self.code.build(self.distance)
    }

    /// Lowers the scenario to the harness' [`ExperimentSpec`], with the
    /// GLADIATOR model calibrated to `(p, leakage_ratio)` exactly like the
    /// hand-written paper runners.
    #[must_use]
    pub fn to_spec(&self) -> ExperimentSpec {
        ExperimentSpec {
            policy: self.policy,
            noise: NoiseParams::builder()
                .physical_error_rate(self.p)
                .leakage_ratio(self.leakage_ratio)
                .build(),
            gladiator: GladiatorConfig::default(),
            rounds: self.rounds,
            shots: self.shots,
            seed: self.seed,
            leakage_sampling: true,
            decode: self.decode,
        }
        .calibrated()
    }

    /// A short stable identifier naming the cell in error messages and in
    /// adaptive checkpoints, which store it per cell and hash it into the
    /// batch-size jitter. Scenarios on the legacy (absent) decoder keep their
    /// pre-backend ids; an explicit backend is suffixed with `@label`.
    #[must_use]
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}_d{}_p{:e}_lr{:e}/{}",
            self.code.label(),
            self.distance,
            self.p,
            self.leakage_ratio,
            self.policy.label()
        );
        if let Some(kind) = self.decoder {
            id.push('@');
            id.push_str(kind.label());
        }
        id
    }

    /// Checks every field for consistency (size constraint, probabilities,
    /// non-zero shot and round counts).
    ///
    /// # Errors
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.code.validate_size(self.distance)?;
        if !(self.p > 0.0 && self.p <= 1.0) {
            return Err(format!("p = {} is not in (0, 1]", self.p));
        }
        if !(self.leakage_ratio >= 0.0 && self.leakage_ratio * self.p <= 1.0) {
            return Err(format!("leakage ratio {} is out of range", self.leakage_ratio));
        }
        if self.shots == 0 {
            return Err("shots must be positive".to_string());
        }
        if self.rounds == 0 {
            return Err("rounds must be positive".to_string());
        }
        if let Some(kind) = self.decoder {
            kind.supports(self.code.qec_family(), self.distance)
                .map_err(|e| format!("decoder `{}` cannot serve this cell: {e}", kind.label()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            code: CodeFamily::Surface,
            distance: 3,
            rounds: 8,
            p: 1e-3,
            leakage_ratio: 0.1,
            policy: PolicyKind::GladiatorM,
            shots: 4,
            seed: 7,
            decode: true,
            decoder: None,
        }
    }

    #[test]
    fn family_labels_round_trip() {
        for family in CodeFamily::ALL {
            assert_eq!(CodeFamily::from_label(family.label()), Some(family));
        }
        assert_eq!(CodeFamily::from_label("steane"), None);
    }

    #[test]
    fn size_validation_matches_constructor_constraints() {
        assert!(CodeFamily::Surface.validate_size(5).is_ok());
        assert!(CodeFamily::Surface.validate_size(4).is_err());
        assert!(CodeFamily::Color.validate_size(1).is_err());
        assert!(CodeFamily::Hgp.validate_size(2).is_ok());
        assert!(CodeFamily::Hgp.validate_size(1).is_err());
        assert!(CodeFamily::Bpc.validate_size(14).is_ok());
        assert!(CodeFamily::Bpc.validate_size(10).is_err());
    }

    #[test]
    fn every_family_builds_its_smallest_instance() {
        for (family, size) in [
            (CodeFamily::Surface, 3),
            (CodeFamily::Color, 3),
            (CodeFamily::Hgp, 2),
            (CodeFamily::Bpc, 7),
        ] {
            family.validate_size(size).unwrap();
            let code = family.build(size);
            assert!(code.name().starts_with(family.label()), "{}", code.name());
        }
    }

    #[test]
    fn spec_lowering_calibrates_the_gladiator_model() {
        let scenario = Scenario { p: 2e-3, leakage_ratio: 0.5, ..sample() };
        let spec = scenario.to_spec();
        assert!((spec.noise.p - 2e-3).abs() < 1e-15);
        assert!((spec.gladiator.p - 2e-3).abs() < 1e-15);
        assert!((spec.gladiator.leakage_ratio - 0.5).abs() < 1e-12);
        assert!(spec.leakage_sampling);
        assert!(spec.decode);
        assert_eq!(spec.rounds, 8);
    }

    #[test]
    fn scenario_ids_encode_the_cell_coordinates() {
        assert_eq!(sample().id(), "surface_d3_p1e-3_lr1e-1/gladiator+m");
        let explicit = Scenario { decoder: Some(DecoderKind::Lookup), ..sample() };
        assert_eq!(explicit.id(), "surface_d3_p1e-3_lr1e-1/gladiator+m@lookup");
    }

    #[test]
    fn decoder_field_is_omitted_when_absent_and_round_trips_when_present() {
        // Legacy scenarios must keep their exact pre-backend bytes.
        let json = serde_json::to_string(&sample()).unwrap();
        assert!(!json.contains("decoder"), "unexpected decoder field: {json}");
        assert_eq!(serde_json::from_str::<Scenario>(&json).unwrap(), sample());
        // An explicit backend serializes as its wire label and round-trips.
        let explicit = Scenario { decoder: Some(DecoderKind::Lookup), ..sample() };
        let json = serde_json::to_string(&explicit).unwrap();
        assert!(json.ends_with(r#""decode":true,"decoder":"lookup"}"#), "{json}");
        assert_eq!(serde_json::from_str::<Scenario>(&json).unwrap(), explicit);
        // Unknown decoder labels are typed deserialization errors.
        let bad = json.replace("lookup", "mwpm");
        let err = serde_json::from_str::<Scenario>(&bad).unwrap_err();
        assert!(err.to_string().contains("uf, lookup"), "{err}");
    }

    #[test]
    fn validation_rejects_decoder_family_mismatches() {
        // lookup: only surface/color at exactly d=3.
        assert!(Scenario { decoder: Some(DecoderKind::Lookup), ..sample() }.validate().is_ok());
        let d5 = Scenario { distance: 5, decoder: Some(DecoderKind::Lookup), ..sample() };
        let err = d5.validate().unwrap_err();
        assert!(err.contains("lookup") && err.contains("distance 3"), "{err}");
        let hgp = Scenario {
            code: CodeFamily::Hgp,
            distance: 2,
            decoder: Some(DecoderKind::Lookup),
            ..sample()
        };
        assert!(hgp.validate().is_err());
        // explicit uf: needs a matchable (surface) code.
        let color_uf =
            Scenario { code: CodeFamily::Color, decoder: Some(DecoderKind::UnionFind), ..sample() };
        let err = color_uf.validate().unwrap_err();
        assert!(err.contains("matchable"), "{err}");
    }

    #[test]
    fn validation_rejects_bad_cells() {
        assert!(sample().validate().is_ok());
        assert!(Scenario { distance: 4, ..sample() }.validate().is_err());
        assert!(Scenario { p: 0.0, ..sample() }.validate().is_err());
        assert!(Scenario { p: f64::NAN, ..sample() }.validate().is_err());
        assert!(Scenario { shots: 0, ..sample() }.validate().is_err());
        assert!(Scenario { rounds: 0, ..sample() }.validate().is_err());
        assert!(Scenario { leakage_ratio: -1.0, ..sample() }.validate().is_err());
    }
}
