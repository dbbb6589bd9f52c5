//! Exact maximum-likelihood lookup-table decoder for d=3 codes.
//!
//! At distance 3 the whole decoding problem fits in a table: the rotated
//! surface code has 9 data qubits and the 6.6.6 color code 7, so *every*
//! X-error pattern (2⁹ = 512 / 2⁷ = 128 of them) can be enumerated offline
//! and bucketed by its Z-check syndrome. For each syndrome the decoder stores
//! the correction from the most likely logical coset — minimum weight, ties
//! broken towards the coset with more minimum-weight representatives, then
//! deterministically towards the trivial coset — which is exact maximum
//! likelihood under i.i.d. bit-flip noise at low physical error rate.
//!
//! The space–time part telescopes away. The simulator defines detector `r` of
//! check `c` as `measurement[r][c] ^ measurement[r-1][c]` and the final layer
//! as `perfect[c] ^ measurement[last][c]`, so XOR-folding all detection events
//! of one check across rounds yields exactly `perfect[c]`: the noiseless
//! syndrome of the final data frame. Measurement and leakage-readout noise
//! cancel in the fold, which is why this backend needs no matching graph and
//! also covers the color code that [`qec_codes::MatchingGraph`] rejects.
//!
//! Against union–find this is the exactness reference, with one caveat: the
//! table is exact ML *given the folded syndrome*, while union–find sees the
//! full space–time syndrome. Neither strictly dominates on every run, but
//! wherever union–find's uniform edge weights mis-model the noise (leakage above
//! all) the fold is the more faithful statistic, and across the pinned
//! operating points the table's logical error rate sits at or below
//! union–find's.

use leaky_sim::RunRecord;
use qec_codes::{CheckBasis, Code, CodeFamily, DataQubitId};

use crate::decoder::Correction;

/// Exact lookup-table decoder for a d=3 surface or color code memory in the
/// Z basis. Build once with [`LookupDecoder::build`], then decode any number
/// of runs; the table is immutable and shared freely across threads.
#[derive(Debug)]
pub struct LookupDecoder {
    /// Z-check ids in id order; slot `s` of a layer is `checks[s]`.
    checks: Vec<usize>,
    /// Detector layers covered (noisy rounds + the final perfect layer).
    layers: usize,
    /// Canonical correction for each of the `2^checks.len()` syndromes.
    table: Vec<Correction>,
}

impl LookupDecoder {
    /// Enumerates the full error model of `code` and builds the syndrome
    /// table. `layers` is the detector depth this decoder expects from runs
    /// (`rounds + 1`, matching [`qec_codes::MatchingGraph::build`]).
    ///
    /// # Errors
    /// Returns an actionable message unless `code` is a distance-3 surface or
    /// color code — the only families/sizes the table is enumerated for.
    pub fn build(code: &Code, layers: usize) -> Result<Self, String> {
        match code.family() {
            CodeFamily::Surface | CodeFamily::Color if code.distance() == 3 => {}
            family => {
                return Err(format!(
                    "lookup decoder supports only surface/color at d=3, \
                     got {family} d={}",
                    code.distance()
                ))
            }
        }
        if layers == 0 {
            return Err("lookup decoder needs at least one detector layer".to_string());
        }
        let checks: Vec<usize> = code.checks_of(CheckBasis::Z).map(|c| c.id).collect();
        let supports: Vec<&[DataQubitId]> =
            code.checks_of(CheckBasis::Z).map(|c| c.support.as_slice()).collect();
        let logical: &[DataQubitId] = code
            .logical_z()
            .first()
            .map(Vec::as_slice)
            .ok_or_else(|| "lookup decoder needs a logical-Z operator".to_string())?;
        let n = code.num_data();
        assert!(n <= 16, "enumeration is only meant for tiny d=3 codes");

        // Per (syndrome, logical coset): minimum weight, multiplicity at that
        // weight, and the first (lexicographically smallest) representative.
        #[derive(Clone, Copy)]
        struct Coset {
            weight: u32,
            count: u32,
            representative: u32,
        }
        let num_syndromes = 1usize << checks.len();
        let mut cosets: Vec<[Option<Coset>; 2]> = vec![[None; 2]; num_syndromes];
        for pattern in 0u32..(1u32 << n) {
            let mut syndrome = 0usize;
            for (slot, support) in supports.iter().enumerate() {
                let parity = support.iter().filter(|&&q| pattern & (1 << q) != 0).count() % 2;
                syndrome |= parity << slot;
            }
            let class = logical.iter().filter(|&&q| pattern & (1 << q) != 0).count() % 2;
            let weight = pattern.count_ones();
            let slot = &mut cosets[syndrome][class];
            match slot {
                Some(best) if weight < best.weight => {
                    *slot = Some(Coset { weight, count: 1, representative: pattern });
                }
                Some(best) if weight == best.weight => best.count += 1,
                Some(_) => {}
                None => *slot = Some(Coset { weight, count: 1, representative: pattern }),
            }
        }

        let table = cosets
            .iter()
            .map(|classes| {
                // Both cosets are always populated for these codes (the Z
                // checks are independent, so every syndrome is reachable).
                let trivial = classes[0].expect("trivial coset reachable");
                let flipped = classes[1].expect("flipped coset reachable");
                let pick = if flipped.weight < trivial.weight
                    || (flipped.weight == trivial.weight && flipped.count > trivial.count)
                {
                    flipped
                } else {
                    trivial
                };
                let data_qubits = (0..n).filter(|&q| pick.representative & (1 << q) != 0).collect();
                Correction { data_qubits, matched_edges: Vec::new() }
            })
            .collect();

        Ok(LookupDecoder { checks, layers, table })
    }

    /// Detector layers covered (noisy rounds + 1).
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Z-check ids in slot order; event index `r * num_slots + s` is layer
    /// `r` of check `checks()[s]`.
    #[must_use]
    pub fn checks(&self) -> &[usize] {
        &self.checks
    }

    /// Extracts this decoder's detection events from a simulated run, using
    /// the `layer * num_slots + slot` indexing convention.
    ///
    /// # Panics
    /// Panics if `run.num_rounds() + 1` differs from [`layers`](Self::layers).
    #[must_use]
    pub fn detection_events(&self, run: &RunRecord) -> Vec<usize> {
        assert_eq!(
            self.layers,
            run.num_rounds() + 1,
            "lookup decoder must cover one more layer than the noisy rounds"
        );
        let per_layer = self.checks.len();
        // `checks` ascends, so a fired check's slot is its rank there.
        let slot = |check: usize| self.checks.binary_search(&check).ok();
        let mut events = Vec::new();
        for (r, round) in run.rounds().iter().enumerate() {
            let fired = round.detectors().ones().filter_map(slot);
            events.extend(fired.map(|slot| r * per_layer + slot));
        }
        if let Some(last) = run.rounds().last() {
            let flips = run.final_perfect_measurements().differences(last.measurements());
            events.extend(flips.filter_map(slot).map(|slot| run.num_rounds() * per_layer + slot));
        }
        events
    }

    /// Folds the detection events into the final-frame syndrome and returns
    /// the table's correction for it.
    ///
    /// # Panics
    /// Panics if an event index is out of range for this decoder's layer
    /// count (indices must come from [`detection_events`](Self::detection_events)).
    #[must_use]
    pub fn decode(&self, detection_events: &[usize]) -> Correction {
        let per_layer = self.checks.len();
        let mut syndrome = 0usize;
        for &event in detection_events {
            assert!(
                event < per_layer * self.layers,
                "detection event {event} out of range for {} layers of {per_layer} checks",
                self.layers
            );
            syndrome ^= 1 << (event % per_layer);
        }
        self.table[syndrome].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DecoderBackend;
    use crate::decoder::UnionFindDecoder;
    use crate::syndrome::{logical_failure, MemoryBasis};
    use leaky_sim::{policy::NeverLrc, NoiseParams, Simulator};
    use qec_codes::MatchingGraph;

    /// Syndrome slots (single layer) of an X-error pattern, shared event
    /// indexing for both lookup (layers=1) and union–find (rounds=1 graph).
    fn syndrome_slots(code: &Code, pattern: &[DataQubitId]) -> Vec<usize> {
        code.checks_of(CheckBasis::Z)
            .enumerate()
            .filter(|(_, check)| {
                check.support.iter().filter(|q| pattern.contains(q)).count() % 2 == 1
            })
            .map(|(slot, _)| slot)
            .collect()
    }

    fn residual_is_benign(code: &Code, pattern: &[DataQubitId], correction: &Correction) {
        let mut frames = vec![false; code.num_data()];
        for &q in pattern {
            frames[q] ^= true;
        }
        for &q in &correction.data_qubits {
            frames[q] ^= true;
        }
        for check in code.checks_of(CheckBasis::Z) {
            let parity = check.support.iter().filter(|&&q| frames[q]).count() % 2;
            assert_eq!(parity, 0, "correction does not clear the syndrome");
        }
        let logical = &code.logical_z()[0];
        let class = logical.iter().filter(|&&q| frames[q]).count() % 2;
        assert_eq!(class, 0, "correction left a logical error for {pattern:?}");
    }

    #[test]
    fn rejects_unsupported_codes_with_actionable_errors() {
        for code in [Code::rotated_surface(5), Code::color_666(5), Code::hgp(2), Code::bpc(7)] {
            let err = LookupDecoder::build(&code, 2).unwrap_err();
            assert!(err.contains("surface/color at d=3"), "unhelpful error: {err}");
        }
        assert!(LookupDecoder::build(&Code::rotated_surface(3), 0).is_err());
    }

    #[test]
    fn corrects_every_single_error_surface_and_color() {
        for code in [Code::rotated_surface(3), Code::color_666(3)] {
            let decoder = LookupDecoder::build(&code, 1).unwrap();
            residual_is_benign(&code, &[], &decoder.decode(&[]));
            for q in 0..code.num_data() {
                let events = syndrome_slots(&code, &[q]);
                residual_is_benign(&code, &[q], &decoder.decode(&events));
            }
        }
    }

    #[test]
    fn agrees_with_union_find_on_every_correctable_pattern() {
        // Property pinned by the issue: at d=3 both backends correct every
        // weight ≤ ⌊(d−1)/2⌋ = 1 pattern with no logical failure. One layer,
        // shared slot indexing (union–find's graph nodes for round 0 are the
        // Z-check slots in the same order; the extra boundary node is never
        // an event).
        let code = Code::rotated_surface(3);
        let lookup = LookupDecoder::build(&code, 1).unwrap();
        let graph = MatchingGraph::build(&code, CheckBasis::Z, 1);
        let uf = UnionFindDecoder::new(graph);
        let mut patterns: Vec<Vec<DataQubitId>> = vec![vec![]];
        patterns.extend((0..code.num_data()).map(|q| vec![q]));
        for pattern in patterns {
            let events = syndrome_slots(&code, &pattern);
            residual_is_benign(&code, &pattern, &lookup.decode(&events));
            residual_is_benign(&code, &pattern, &UnionFindDecoder::decode(&uf, &events));
        }
    }

    #[test]
    fn folded_events_equal_perfect_final_syndrome() {
        // The telescoping identity the decoder relies on: XOR-folding all
        // detection events of a check equals its perfect final measurement.
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder().physical_error_rate(2e-2).leakage_ratio(0.3).build();
        let decoder = LookupDecoder::build(&code, 6).unwrap();
        for seed in 0..8 {
            let mut sim = Simulator::new(&code, noise, seed);
            let run = sim.run_with_policy(&mut NeverLrc, 5);
            let events = decoder.detection_events(&run);
            let per_layer = decoder.checks().len();
            let mut folded = vec![false; per_layer];
            for event in events {
                folded[event % per_layer] ^= true;
            }
            for (slot, &check) in decoder.checks().iter().enumerate() {
                assert_eq!(folded[slot], run.final_perfect_measurements().get(check));
            }
        }
    }

    #[test]
    fn never_fails_on_noiseless_runs_and_rarely_under_noise() {
        for code in [Code::rotated_surface(3), Code::color_666(3)] {
            let decoder = LookupDecoder::build(&code, 4).unwrap();
            let noise = NoiseParams::builder()
                .physical_error_rate(0.0)
                .leakage_ratio(0.0)
                .mlr_false_flag(0.0)
                .build();
            for seed in 0..4 {
                let mut sim = Simulator::new(&code, noise, seed);
                let run = sim.run_with_policy(&mut NeverLrc, 3);
                let correction = decoder.decode_run(&run);
                assert!(!logical_failure(&code, &run, &correction, MemoryBasis::Z));
            }
        }
        // Under mild noise the exact table should fail at most as often as
        // union–find on identical runs (it is exact ML at d=3).
        let code = Code::rotated_surface(3);
        let lookup = LookupDecoder::build(&code, 4).unwrap();
        let graph = MatchingGraph::build(&code, CheckBasis::Z, 4);
        let uf = UnionFindDecoder::new(graph);
        let noise = NoiseParams::builder().physical_error_rate(8e-3).leakage_ratio(0.1).build();
        let (mut lookup_failures, mut uf_failures) = (0usize, 0usize);
        for seed in 0..200 {
            let mut sim = Simulator::new(&code, noise, 9000 + seed);
            let run = sim.run_with_policy(&mut NeverLrc, 3);
            let lc = DecoderBackend::decode_run(&lookup, &run);
            let uc = DecoderBackend::decode_run(&uf, &run);
            lookup_failures += usize::from(logical_failure(&code, &run, &lc, MemoryBasis::Z));
            uf_failures += usize::from(logical_failure(&code, &run, &uc, MemoryBasis::Z));
        }
        assert!(
            lookup_failures <= uf_failures,
            "exact table failed {lookup_failures} vs union-find {uf_failures}"
        );
    }
}
