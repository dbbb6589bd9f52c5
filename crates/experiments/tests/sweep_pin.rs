//! Pins the sweep executor's cells, byte for byte, on every code family.
//!
//! One FNV-1a digest per grid covers `report::to_json` of the cells
//! `sweep::run_scenarios` returns for it, with timing off. The cells are
//! digested rather than `run_sweep`'s report, which embeds `git describe`.
//! The four-family grids run all 11 policies under leaky noise on surface
//! (decoded), color, hgp and bpc codes. The zero-flagging grids calibrate
//! GLADIATOR where the all-zero pattern or window flags for some qubits. A
//! change that moves a cell on purpose updates these digests and says why in
//! CHANGES.md.

use leakage_speculation::PolicyKind;
use qec_experiments::report::to_json;
use qec_experiments::scenario::CodeFamily;
use qec_experiments::sweep::{run_scenarios, SweepSpec};
use qec_trace::format::fnv1a_str;

const GLADIATORS: [PolicyKind; 4] = [
    PolicyKind::Gladiator,
    PolicyKind::GladiatorM,
    PolicyKind::GladiatorD,
    PolicyKind::GladiatorDM,
];

struct Grid {
    code: CodeFamily,
    sizes: &'static [usize],
    error_rates: &'static [f64],
    leakage_ratios: &'static [f64],
    policies: &'static [PolicyKind],
    shots: usize,
    decode: bool,
}

impl Grid {
    /// A leaky four-cell `p × lr` grid over every policy, 16 shots each.
    fn leaky(code: CodeFamily, sizes: &'static [usize], decode: bool) -> Self {
        Grid {
            code,
            sizes,
            error_rates: &[1e-3, 1e-2],
            leakage_ratios: &[0.1, 1.0],
            policies: &PolicyKind::ALL,
            shots: 16,
            decode,
        }
    }

    fn spec(&self) -> SweepSpec {
        SweepSpec {
            code: self.code,
            distances: self.sizes.to_vec(),
            error_rates: self.error_rates.to_vec(),
            leakage_ratios: self.leakage_ratios.to_vec(),
            policies: self.policies.to_vec(),
            shots: self.shots,
            rounds_per_distance: 3,
            seed: 2026,
            decode: self.decode,
            decoders: None,
            adaptive: None,
        }
    }
}

fn check(grid: &Grid, cells: usize, expected: u64) {
    let scenarios = grid.spec().expand().expect("grid expands");
    assert_eq!(scenarios.len(), cells, "{:?} cells", grid.code);
    let digest = fnv1a_str(&to_json(&run_scenarios(&scenarios, false)));
    assert_eq!(digest, expected, "{:?} grid digest: {digest:#018x}", grid.code);
}

#[test]
fn decoded_surface_grid_is_pinned() {
    check(&Grid::leaky(CodeFamily::Surface, &[3, 5], true), 88, 0x55f0_cce0_e5a4_85ba);
}

#[test]
fn color_grid_is_pinned() {
    check(&Grid::leaky(CodeFamily::Color, &[3, 5], false), 88, 0x45f9_92ff_f1bb_8337);
}

#[test]
fn hgp_grid_is_pinned() {
    check(&Grid::leaky(CodeFamily::Hgp, &[2], false), 44, 0x232f_7b23_ab93_c725);
}

#[test]
fn bpc_grid_is_pinned() {
    check(
        &Grid { shots: 8, ..Grid::leaky(CodeFamily::Bpc, &[14], false) },
        44,
        0x0e0b_e208_0871_d2b8,
    );
}

#[test]
fn zero_flagging_color_grid_is_pinned() {
    let grid = Grid {
        error_rates: &[0.05, 0.1],
        leakage_ratios: &[1.0, 2.0],
        policies: &GLADIATORS,
        ..Grid::leaky(CodeFamily::Color, &[5], false)
    };
    check(&grid, 16, 0x44d1_d46b_217a_18aa);
}

#[test]
fn zero_flagging_surface_grid_is_pinned() {
    let grid = Grid {
        error_rates: &[0.2],
        leakage_ratios: &[5.0],
        policies: &GLADIATORS,
        ..Grid::leaky(CodeFamily::Surface, &[5], false)
    };
    check(&grid, 4, 0x80cf_0b5e_cfd6_7285);
}
