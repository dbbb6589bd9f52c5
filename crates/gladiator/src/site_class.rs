//! Site classes: the per-data-qubit environment the offline model is built for.
//!
//! The fault enumeration needs to know, for every adjacent parity site, *which data
//! Pauli errors it detects*: a Z-type check detects X errors, an X-type check detects Z
//! errors, and a self-dual face (color code) detects both. Two data qubits whose
//! adjacent sites have the same width and the same detection signature share one
//! lookup table, so the model is built per [`SiteClass`] rather than per qubit.

use serde::{Deserialize, Serialize};

use qec_codes::{CheckBasis, Code};

/// The detection signature of one data qubit's adjacent parity sites, in CNOT time
/// order (bit `i` = `i`-th adjacent site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SiteClass {
    /// Number of adjacent parity sites (pattern width).
    pub width: usize,
    /// Bit `i` set when site `i` detects data **X** errors (i.e. hosts a Z-type check).
    pub detects_x: u32,
    /// Bit `i` set when site `i` detects data **Z** errors (i.e. hosts an X-type check).
    pub detects_z: u32,
}

impl SiteClass {
    /// The class in which every site detects every Pauli — the paper's simplified
    /// exposition (Figure 6) and the correct model for self-dual faces.
    #[must_use]
    pub fn uniform(width: usize) -> Self {
        let all = if width == 0 { 0 } else { (1u32 << width) - 1 };
        SiteClass { width, detects_x: all, detects_z: all }
    }

    /// Sites that detect the given single-qubit Pauli component.
    #[must_use]
    pub fn detection_mask(&self, x_component: bool, z_component: bool) -> u32 {
        let mut mask = 0;
        if x_component {
            mask |= self.detects_x;
        }
        if z_component {
            mask |= self.detects_z;
        }
        mask
    }

    /// Per-data-qubit site classes of a code, in data-qubit order.
    #[must_use]
    pub fn per_qubit(code: &Code) -> Vec<SiteClass> {
        let sites = code.parity_sites();
        let adjacency = code.site_adjacency();
        (0..code.num_data())
            .map(|q| {
                let neighbors = adjacency.neighbors(q);
                let mut detects_x = 0u32;
                let mut detects_z = 0u32;
                for (bit, entry) in neighbors.iter().enumerate() {
                    for &check in sites.checks_of(entry.site) {
                        match code.check(check).basis {
                            CheckBasis::Z => detects_x |= 1 << bit,
                            CheckBasis::X => detects_z |= 1 << bit,
                        }
                    }
                }
                SiteClass { width: neighbors.len(), detects_x, detects_z }
            })
            .collect()
    }

    /// The distinct site classes of a code, sorted.
    #[must_use]
    pub fn classes_of(code: &Code) -> Vec<SiteClass> {
        let mut classes = Self::per_qubit(code);
        classes.sort_unstable();
        classes.dedup();
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_class_detects_everything() {
        let class = SiteClass::uniform(4);
        assert_eq!(class.detects_x, 0b1111);
        assert_eq!(class.detects_z, 0b1111);
        assert_eq!(class.detection_mask(true, false), 0b1111);
        assert_eq!(class.detection_mask(false, false), 0);
    }

    #[test]
    fn surface_bulk_qubits_split_detection_between_bases() {
        let code = Code::rotated_surface(5);
        let per_qubit = SiteClass::per_qubit(&code);
        // Bulk qubit: 4 sites, 2 detect X and 2 detect Z, with disjoint masks.
        let bulk = per_qubit.iter().find(|c| c.width == 4).expect("bulk class exists");
        assert_eq!(bulk.detects_x.count_ones(), 2);
        assert_eq!(bulk.detects_z.count_ones(), 2);
        assert_eq!(bulk.detects_x & bulk.detects_z, 0);
        assert_eq!(bulk.detects_x | bulk.detects_z, 0b1111);
    }

    #[test]
    fn color_code_faces_detect_both_paulis() {
        let code = Code::color_666(5);
        for class in SiteClass::classes_of(&code) {
            assert_eq!(class.detects_x, class.detects_z, "face sites are self-dual");
            assert_eq!(class.detects_x, (1 << class.width) - 1);
        }
    }

    #[test]
    fn classes_are_deduplicated_and_cover_all_widths() {
        let code = Code::rotated_surface(5);
        let classes = SiteClass::classes_of(&code);
        let widths: Vec<usize> = classes.iter().map(|c| c.width).collect();
        assert!(widths.contains(&2) && widths.contains(&3) && widths.contains(&4));
        let mut sorted = classes.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), classes.len());
    }
}
