//! Declarative workload descriptions.
//!
//! A [`Scenario`] names one `(code family, distance, rounds, error rate,
//! leakage ratio, policy, shots, seed)` combination — everything needed to run
//! one Monte-Carlo cell without writing a new runner function. Scenarios are
//! plain serializable data: sweep specs expand into them
//! ([`crate::sweep::SweepSpec`]), the `repro` binary parses them from JSON or
//! grid flags, and [`crate::sweep::run_scenarios`] executes batches of them on
//! the [`crate::engine::BatchEngine`] with shared artifacts.
//!
//! The family is [`qec_codes::CodeFamily`], re-exported here: qec-codes checks,
//! names and builds every family's instances, so a scenario, a sweep grid and a
//! corpus manifest name a code the way its constructor does.

use serde::{Deserialize, Serialize};

use gladiator::GladiatorConfig;
use leakage_speculation::PolicyKind;
use leaky_sim::NoiseParams;
use qec_codes::Code;
pub use qec_codes::CodeFamily;
use qec_decoder::DecoderKind;

use crate::harness::ExperimentSpec;

/// One fully-specified Monte-Carlo workload cell.
///
/// `distance` is the family's size parameter (see [`CodeFamily`]). The derived
/// [`ExperimentSpec`] always uses leakage sampling and a GLADIATOR calibration
/// derived from `(p, leakage_ratio)`, matching the paper runners.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    #[serde(skip_serializing_if = "Option::is_none")]
    pub decoder: Option<DecoderKind>,
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

    /// Checks every field for consistency (size constraint and the family's
    /// size cap, probabilities, non-zero shot and round counts, and a
    /// decoder — selected, or union-find when `decode` is set without one —
    /// that can serve the code).
    ///
    /// # Errors
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.code.validate_size(self.distance)?;
        let cap = max_size(self.code);
        if self.distance > cap {
            return Err(format!(
                "{} does not admit size {} (its cap is {cap})",
                self.code.label(),
                self.distance
            ));
        }
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
        // A decoding cell without a selection decodes on union-find, which
        // must be able to serve it just like an explicit choice.
        if let Some(kind) = self.decoder.or(self.decode.then_some(DecoderKind::UnionFind)) {
            kind.supports(self.code, self.distance)
                .map_err(|e| format!("decoder `{}` cannot serve this cell: {e}", kind.label()))?;
        }
        Ok(())
    }
}

/// The largest size a scenario may ask of `family`. Every size the
/// repository uses fits (paper scale reaches surface and color d = 17, hgp
/// l = 3 and bpc l = 21), and each cap builds in under a second; an
/// unbounded size from a grid or spec could spin for minutes building a code
/// (a d = 1001 surface code has over a million data qubits).
fn max_size(family: CodeFamily) -> usize {
    match family {
        CodeFamily::Surface | CodeFamily::Color => 101,
        CodeFamily::Hgp => 16,
        CodeFamily::Bpc => 700,
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

    /// `sample()` without a decoder, pretty-printed.
    const PRETTY_NO_DECODER: &str = r#"{
  "code": "Surface",
  "distance": 3,
  "rounds": 8,
  "p": 0.001,
  "leakage_ratio": 0.1,
  "policy": "GladiatorM",
  "shots": 4,
  "seed": 7,
  "decode": true
}"#;
    /// `sample()` on `uf`, pretty-printed.
    const PRETTY_UF: &str = r#"{
  "code": "Surface",
  "distance": 3,
  "rounds": 8,
  "p": 0.001,
  "leakage_ratio": 0.1,
  "policy": "GladiatorM",
  "shots": 4,
  "seed": 7,
  "decode": true,
  "decoder": "uf"
}"#;
    /// `sample()` on `lookup`, pretty-printed.
    const PRETTY_LOOKUP: &str = r#"{
  "code": "Surface",
  "distance": 3,
  "rounds": 8,
  "p": 0.001,
  "leakage_ratio": 0.1,
  "policy": "GladiatorM",
  "shots": 4,
  "seed": 7,
  "decode": true,
  "decoder": "lookup"
}"#;

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
        // Legacy scenarios keep their exact pre-backend bytes (no `decoder`
        // key, not even `null`); an explicit backend appends its wire label.
        let cases = [
            (
                None,
                r#"{"code":"Surface","distance":3,"rounds":8,"p":0.001,"leakage_ratio":0.1,"policy":"GladiatorM","shots":4,"seed":7,"decode":true}"#,
                PRETTY_NO_DECODER,
            ),
            (
                Some(DecoderKind::UnionFind),
                r#"{"code":"Surface","distance":3,"rounds":8,"p":0.001,"leakage_ratio":0.1,"policy":"GladiatorM","shots":4,"seed":7,"decode":true,"decoder":"uf"}"#,
                PRETTY_UF,
            ),
            (
                Some(DecoderKind::Lookup),
                r#"{"code":"Surface","distance":3,"rounds":8,"p":0.001,"leakage_ratio":0.1,"policy":"GladiatorM","shots":4,"seed":7,"decode":true,"decoder":"lookup"}"#,
                PRETTY_LOOKUP,
            ),
        ];
        for (decoder, compact, pretty) in cases {
            let scenario = Scenario { decoder, ..sample() };
            assert_eq!(serde_json::to_string(&scenario).unwrap(), compact);
            assert_eq!(serde_json::to_string_pretty(&scenario).unwrap(), pretty);
            assert_eq!(serde_json::from_str::<Scenario>(compact).unwrap(), scenario);
            assert_eq!(serde_json::from_str::<Scenario>(pretty).unwrap(), scenario);
        }
        let explicit = Scenario { decoder: Some(DecoderKind::Lookup), ..sample() };
        let json = serde_json::to_string(&explicit).unwrap();
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
        // No selection decodes on uf too, so it is checked the same way —
        // but only when the cell decodes at all.
        let color = Scenario { code: CodeFamily::Color, ..sample() };
        assert_eq!(color.validate().unwrap_err(), err);
        assert!(Scenario { decode: false, ..color }.validate().is_ok());
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
        for (code, cap, next) in [
            (CodeFamily::Surface, 101, 103),
            (CodeFamily::Color, 101, 103),
            (CodeFamily::Hgp, 16, 17),
            (CodeFamily::Bpc, 700, 707),
        ] {
            let cell = Scenario { code, decode: false, ..sample() };
            assert!(Scenario { distance: cap, ..cell }.validate().is_ok(), "{code} {cap}");
            let err = Scenario { distance: next, ..cell }.validate().unwrap_err();
            assert!(err.contains(&format!("its cap is {cap}")), "{err}");
        }
    }
}
