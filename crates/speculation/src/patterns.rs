//! Per-data-qubit syndrome patterns (the paper's data-parity adjacency generator).
//!
//! The dense [`PatternExtractor::patterns`] builds every data qubit's pattern. The
//! syndrome-driven policies plan sparsely instead: a `PatternScratch` walks the
//! extractor's inverse adjacency (check → site → adjacent qubits) from the fired
//! checks only, so a round costs in proportion to its detection events.

use leaky_sim::Bits;
use qec_codes::{CheckId, Code, DataQubitId, SiteId};

/// Turns a round's raw detector vector into the per-data-qubit syndrome patterns the
/// speculation policies classify.
///
/// Checks measured by the same physical parity qubit (e.g. the X and Z checks of one
/// color-code face) are merged into one *site*; a site's bit is set when any of its
/// checks flipped. Pattern bit `i` of a data qubit corresponds to its `i`-th adjacent
/// site in CNOT time order (the paper's `A1 … An`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternExtractor {
    site_checks: Vec<Vec<CheckId>>,
    qubit_sites: Vec<Vec<SiteId>>,
    /// The site of every check (inverse of `site_checks`).
    check_site: Vec<SiteId>,
    /// Every site's adjacent data qubits, ascending, each with the pattern bit the
    /// site sets in it (inverse of `qubit_sites`).
    site_qubits: Vec<Vec<(DataQubitId, u32)>>,
}

impl PatternExtractor {
    /// Builds the extractor for `code`.
    #[must_use]
    pub fn new(code: &Code) -> Self {
        let sites = code.parity_sites();
        let adjacency = code.site_adjacency();
        let site_checks = (0..sites.num_sites()).map(|s| sites.checks_of(s).to_vec()).collect();
        let qubit_sites: Vec<Vec<SiteId>> = (0..code.num_data())
            .map(|q| adjacency.neighbors(q).iter().map(|e| e.site).collect())
            .collect();
        let check_site = (0..code.num_checks()).map(|c| sites.site_of(c)).collect();
        let mut site_qubits = vec![Vec::new(); sites.num_sites()];
        for (q, adjacent) in qubit_sites.iter().enumerate() {
            for (bit, &site) in adjacent.iter().enumerate() {
                site_qubits[site].push((q, bit as u32));
            }
        }
        PatternExtractor { site_checks, qubit_sites, check_site, site_qubits }
    }

    /// Number of parity sites.
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.site_checks.len()
    }

    /// Number of data qubits.
    #[must_use]
    pub fn num_data(&self) -> usize {
        self.qubit_sites.len()
    }

    /// Pattern width (number of adjacent sites) of a data qubit.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn width(&self, q: DataQubitId) -> usize {
        self.qubit_sites[q].len()
    }

    /// The adjacent sites of a data qubit in pattern-bit order.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn sites_of(&self, q: DataQubitId) -> &[SiteId] {
        &self.qubit_sites[q]
    }

    /// The checks measured by a site.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn checks_of_site(&self, site: SiteId) -> &[CheckId] {
        &self.site_checks[site]
    }

    /// Collapses per-check flags (detector flips or MLR flags) into a per-site
    /// vector: a site fires when any of its checks does.
    #[must_use]
    pub fn site_flags(&self, per_check: Bits<'_>) -> Vec<bool> {
        self.site_checks.iter().map(|checks| checks.iter().any(|&c| per_check.get(c))).collect()
    }

    /// Per-data-qubit syndrome patterns for one round of detector flips.
    #[must_use]
    pub fn patterns(&self, detectors: Bits<'_>) -> Vec<u32> {
        let site_flags = self.site_flags(detectors);
        self.qubit_sites
            .iter()
            .map(|sites| {
                sites
                    .iter()
                    .enumerate()
                    .fold(0u32, |acc, (bit, &s)| acc | (u32::from(site_flags[s]) << bit))
            })
            .collect()
    }
}

/// Scratch space of the sparse planners: a per-qubit pattern accumulator and a
/// bitset of the qubits marked since the last [`PatternScratch::drain`].
///
/// Both are all-zero between plan calls, so a policy that owns one keeps no
/// state across rounds or shots, and a walk allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct PatternScratch {
    patterns: Vec<u32>,
    marked: Vec<u64>,
}

impl PatternScratch {
    /// Empty scratch for `num_data` data qubits.
    pub(crate) fn new(num_data: usize) -> Self {
        PatternScratch { patterns: vec![0; num_data], marked: vec![0; num_data.div_ceil(64)] }
    }

    /// Marks data qubit `q` for the next drain, leaving its pattern as it is.
    pub(crate) fn mark(&mut self, q: DataQubitId) {
        self.marked[q / 64] |= 1 << (q % 64);
    }

    /// ORs one round of per-check flags into the patterns of the data qubits next
    /// to a fired site, and marks them, walking the set flags only. `shift(q)`
    /// places the round in `q`'s pattern (site bit `i` lands on bit `i + shift`);
    /// `None` skips `q`.
    pub(crate) fn add_fired(
        &mut self,
        extractor: &PatternExtractor,
        per_check: Bits<'_>,
        shift: impl Fn(DataQubitId) -> Option<u32>,
    ) {
        for check in per_check.ones() {
            for &(q, bit) in &extractor.site_qubits[extractor.check_site[check]] {
                if let Some(shift) = shift(q) {
                    self.patterns[q] |= 1 << (bit + shift);
                    self.mark(q);
                }
            }
        }
    }

    /// Visits every marked qubit in ascending order with its accumulated pattern,
    /// clearing both as it goes.
    pub(crate) fn drain(&mut self, mut visit: impl FnMut(DataQubitId, u32)) {
        for (word_index, word) in self.marked.iter_mut().enumerate() {
            while *word != 0 {
                let q = word_index * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                visit(q, std::mem::take(&mut self.patterns[q]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_sim::BitVec;
    use qec_codes::Code;

    #[test]
    fn surface_extractor_has_one_site_per_check() {
        let code = Code::rotated_surface(3);
        let ex = PatternExtractor::new(&code);
        assert_eq!(ex.num_sites(), code.num_checks());
        assert_eq!(ex.num_data(), code.num_data());
        assert_eq!(ex.width(4), 4, "centre qubit has four adjacent sites");
    }

    #[test]
    fn detector_flip_sets_the_right_pattern_bits() {
        let code = Code::rotated_surface(3);
        let ex = PatternExtractor::new(&code);
        // Flip every check adjacent to qubit 4 -> its pattern must be all ones; qubits
        // not adjacent to any flipped check keep pattern 0.
        let mut detectors = BitVec::new(code.num_checks());
        for &site in ex.sites_of(4) {
            for &check in ex.checks_of_site(site) {
                detectors.set(check, true);
            }
        }
        let patterns = ex.patterns(detectors.as_bits());
        assert_eq!(patterns[4], (1 << ex.width(4)) - 1);
        let untouched: Vec<usize> = (0..code.num_data())
            .filter(|&q| ex.sites_of(q).iter().all(|s| !ex.sites_of(4).contains(s)))
            .collect();
        for q in untouched {
            assert_eq!(patterns[q], 0, "qubit {q} should see no flips");
        }
    }

    #[test]
    fn color_code_sites_fold_x_and_z_checks() {
        let code = Code::color_666(5);
        let ex = PatternExtractor::new(&code);
        assert_eq!(ex.num_sites(), code.num_checks() / 2);
        // Flipping only the Z copy of a face still fires the site.
        let site = 0;
        let checks = ex.checks_of_site(site);
        assert_eq!(checks.len(), 2);
        let mut detectors = BitVec::new(code.num_checks());
        detectors.set(checks[1], true);
        let flags = ex.site_flags(detectors.as_bits());
        assert!(flags[site]);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 1);
    }

    #[test]
    fn pattern_widths_match_site_degrees() {
        for code in [Code::rotated_surface(5), Code::color_666(5), Code::bpc(14)] {
            let ex = PatternExtractor::new(&code);
            let adjacency = code.site_adjacency();
            for q in 0..code.num_data() {
                assert_eq!(ex.width(q), adjacency.neighbors(q).len());
            }
        }
    }

    #[test]
    fn empty_detectors_give_zero_patterns() {
        let code = Code::rotated_surface(5);
        let ex = PatternExtractor::new(&code);
        let patterns = ex.patterns(BitVec::new(code.num_checks()).as_bits());
        assert!(patterns.iter().all(|&p| p == 0));
    }
}
