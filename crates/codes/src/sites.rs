//! Parity sites: grouping checks that share one physical parity qubit.
//!
//! Leakage speculation reasons about *parity qubits* (the hardware ancillas adjacent to
//! a data qubit), not about abstract stabilizer rows. For the surface code the two
//! coincide, but for self-dual codes such as the 6.6.6 color code the X-type and Z-type
//! checks of one face are measured by the same ancilla — the paper's 1-, 2- and 3-bit
//! color-code patterns count *faces*, not matrix rows. This module groups checks with
//! identical supports into [`ParitySites`] and exposes the per-data-qubit site
//! adjacency that pattern extraction and the GLADIATOR offline model operate on.

use std::collections::BTreeMap;

use crate::code::{CheckId, Code, DataQubitId};

/// Identifier of a parity site (dense index).
pub type SiteId = usize;

/// The partition of a code's checks into physical parity sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParitySites {
    site_of_check: Vec<SiteId>,
    checks_of_site: Vec<Vec<CheckId>>,
}

impl ParitySites {
    /// Groups the checks of `code`: checks with identical supports (as a set) share a
    /// parity site.
    #[must_use]
    pub fn new(code: &Code) -> Self {
        let mut by_support: BTreeMap<Vec<DataQubitId>, SiteId> = BTreeMap::new();
        let mut site_of_check = vec![0; code.num_checks()];
        let mut checks_of_site: Vec<Vec<CheckId>> = Vec::new();
        for check in code.checks() {
            let mut key = check.support.clone();
            key.sort_unstable();
            let site = *by_support.entry(key).or_insert_with(|| {
                checks_of_site.push(Vec::new());
                checks_of_site.len() - 1
            });
            site_of_check[check.id] = site;
            checks_of_site[site].push(check.id);
        }
        ParitySites { site_of_check, checks_of_site }
    }

    /// Number of parity sites.
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.checks_of_site.len()
    }

    /// The site hosting `check`.
    ///
    /// # Panics
    /// Panics if the check id is out of range.
    #[must_use]
    pub fn site_of(&self, check: CheckId) -> SiteId {
        self.site_of_check[check]
    }

    /// The checks measured by `site`.
    ///
    /// # Panics
    /// Panics if the site id is out of range.
    #[must_use]
    pub fn checks_of(&self, site: SiteId) -> &[CheckId] {
        &self.checks_of_site[site]
    }
}

/// One adjacency record of the site adjacency: data qubit interacts with `site` first
/// at CNOT time step `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteAdjEntry {
    /// The adjacent parity site.
    pub site: SiteId,
    /// Earliest CNOT time step (over the site's checks) at which the interaction occurs.
    pub time: usize,
}

/// For every data qubit, its adjacent parity sites in time order — the pattern-bit
/// layout used by the speculation policies and the GLADIATOR offline model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteAdjacency {
    per_qubit: Vec<Vec<SiteAdjEntry>>,
}

impl SiteAdjacency {
    /// Builds the site adjacency of `code` under the given site partition.
    #[must_use]
    pub fn new(code: &Code, sites: &ParitySites) -> Self {
        let mut per_qubit: Vec<BTreeMap<SiteId, usize>> = vec![BTreeMap::new(); code.num_data()];
        for check in code.checks() {
            let site = sites.site_of(check.id);
            for (time, &q) in check.support.iter().enumerate() {
                let entry = per_qubit[q].entry(site).or_insert(time);
                *entry = (*entry).min(time);
            }
        }
        let per_qubit = per_qubit
            .into_iter()
            .map(|map| {
                let mut entries: Vec<SiteAdjEntry> =
                    map.into_iter().map(|(site, time)| SiteAdjEntry { site, time }).collect();
                entries.sort_by_key(|e| (e.time, e.site));
                entries
            })
            .collect();
        SiteAdjacency { per_qubit }
    }

    /// Number of data qubits covered.
    #[must_use]
    pub fn num_data(&self) -> usize {
        self.per_qubit.len()
    }

    /// Adjacent sites of data qubit `q` in pattern-bit order.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn neighbors(&self, q: DataQubitId) -> &[SiteAdjEntry] {
        &self.per_qubit[q]
    }

    /// Number of adjacent sites of every data qubit.
    #[must_use]
    pub fn degrees(&self) -> Vec<usize> {
        self.per_qubit.iter().map(Vec::len).collect()
    }

    /// Distinct site degrees occurring in the code, ascending — the pattern widths the
    /// speculation hardware must support.
    #[must_use]
    pub fn degree_classes(&self) -> Vec<usize> {
        let mut degs = self.degrees();
        degs.sort_unstable();
        degs.dedup();
        degs
    }
}

impl Code {
    /// The partition of this code's checks into physical parity sites.
    #[must_use]
    pub fn parity_sites(&self) -> ParitySites {
        ParitySites::new(self)
    }

    /// Per-data-qubit adjacency over parity sites (pattern-bit layout).
    #[must_use]
    pub fn site_adjacency(&self) -> SiteAdjacency {
        let sites = self.parity_sites();
        SiteAdjacency::new(self, &sites)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_code_sites_are_one_per_check() {
        let code = Code::rotated_surface(5);
        let sites = code.parity_sites();
        assert_eq!(sites.num_sites(), code.num_checks());
        for check in code.checks() {
            assert_eq!(sites.checks_of(sites.site_of(check.id)), &[check.id]);
        }
    }

    #[test]
    fn color_code_sites_pair_x_and_z_faces() {
        let code = Code::color_666(5);
        let sites = code.parity_sites();
        assert_eq!(sites.num_sites(), code.num_checks() / 2);
        for site in 0..sites.num_sites() {
            let checks = sites.checks_of(site);
            assert_eq!(checks.len(), 2, "each face hosts an X and a Z check");
            let (a, b) = (code.check(checks[0]), code.check(checks[1]));
            assert_ne!(a.basis, b.basis);
            let mut sa = a.support.clone();
            let mut sb = b.support.clone();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn surface_site_degrees_match_check_degrees() {
        let code = Code::rotated_surface(5);
        assert_eq!(code.site_adjacency().degree_classes(), vec![2, 3, 4]);
    }

    #[test]
    fn color_code_site_degrees_are_one_to_three() {
        // The paper (Section 5.1): color-code data qubits produce 3-bit patterns in the
        // bulk and 2-/1-bit patterns on edges and corners.
        let code = Code::color_666(7);
        assert_eq!(code.site_adjacency().degree_classes(), vec![1, 2, 3]);
    }

    #[test]
    fn hgp_and_bpc_sites_are_one_per_check() {
        let hgp = Code::hgp(2);
        assert_eq!(hgp.parity_sites().num_sites(), hgp.num_checks());
        let bpc = Code::bpc(14);
        assert_eq!(bpc.parity_sites().num_sites(), bpc.num_checks());
        assert_eq!(bpc.site_adjacency().degree_classes(), vec![6]);
    }

    #[test]
    fn site_neighbors_are_time_ordered_and_unique() {
        let code = Code::color_666(5);
        let adjacency = code.site_adjacency();
        for q in 0..code.num_data() {
            let entries = adjacency.neighbors(q);
            let times: Vec<usize> = entries.iter().map(|e| e.time).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            assert_eq!(times, sorted);
            let mut sites: Vec<usize> = entries.iter().map(|e| e.site).collect();
            sites.dedup();
            assert_eq!(sites.len(), entries.len(), "duplicate sites for qubit {q}");
        }
    }
}
