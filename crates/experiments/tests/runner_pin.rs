//! Pins every `repro run` experiment, byte for byte.
//!
//! One FNV-1a digest per runner covers the pretty JSON `repro run` writes for
//! it (`report::to_json` of the runner's rows), at `Scale::smoke()` and at
//! `Scale::quick()`, the default scale of `repro run`. A change that moves a
//! row on purpose updates these digests and says why in CHANGES.md.

use qec_experiments::report::to_json;
use qec_experiments::runners::{self, Scale};
use qec_trace::format::fnv1a_str;

/// Every runner's JSON output, in `repro run` order.
fn outputs(scale: &Scale) -> Vec<(&'static str, String)> {
    vec![
        ("fig1", to_json(&runners::fig1_headline(scale))),
        ("fig3", to_json(&runners::fig3_device_characterization(scale))),
        ("fig4b", to_json(&runners::fig4b_open_loop_ler(scale))),
        ("fig5", to_json(&runners::fig5_surface_pattern_usage(scale))),
        ("fig8", to_json(&runners::fig8_color_code(scale))),
        ("fig9", to_json(&runners::fig9_speculation_accuracy(scale))),
        ("fig10", to_json(&runners::fig10_surface_dlp(scale))),
        ("fig11", to_json(&runners::fig11_color_dlp(scale))),
        ("fig12", to_json(&runners::fig12_ler_vs_distance(scale))),
        ("fig13", to_json(&runners::fig13_error_rate_sensitivity(scale))),
        ("fig14", to_json(&runners::fig14_distance_scaling(scale))),
        ("table2", to_json(&runners::table2_efficacy(scale))),
        ("table3", to_json(&runners::table3_lut_usage())),
        ("table4", to_json(&runners::table4_equilibrium(scale))),
        ("table5", to_json(&runners::table5_code_families(scale))),
        ("table6", to_json(&runners::table6_mobility(scale))),
    ]
}

fn check(scale: &Scale, expected: &[(&str, u64)]) {
    let actual: Vec<(&str, u64)> =
        outputs(scale).iter().map(|(name, json)| (*name, fnv1a_str(json))).collect();
    let printed: Vec<String> =
        actual.iter().map(|(name, digest)| format!("(\"{name}\", {digest:#018x}),")).collect();
    assert_eq!(actual, expected, "runner digests at {scale:?}:\n{}", printed.join("\n"));
}

#[test]
fn smoke_scale_outputs_are_pinned() {
    check(
        &Scale::smoke(),
        &[
            ("fig1", 0x113f_ea28_899c_b1ca),
            ("fig3", 0x875d_64c1_c3f3_9658),
            ("fig4b", 0x040c_aca2_e119_4550),
            ("fig5", 0xeccd_891e_1041_dd28),
            ("fig8", 0x5014_02b0_91c2_6a00),
            ("fig9", 0x9387_c9a6_076d_fb01),
            ("fig10", 0x69cb_cae5_a3d8_fe7e),
            ("fig11", 0x506b_fa30_6b56_23b9),
            ("fig12", 0x69a9_b36c_49d8_68bf),
            ("fig13", 0x2e2a_5072_1a2a_1615),
            ("fig14", 0x220f_eef2_beaf_8d00),
            ("table2", 0x5068_5e76_75b0_41f5),
            ("table3", 0xae4c_59b2_f027_555e),
            ("table4", 0x4b7e_30b2_764e_b775),
            ("table5", 0x233b_7e77_2ea9_21cd),
            ("table6", 0x382b_9920_32f9_f899),
        ],
    );
}

#[test]
fn quick_scale_outputs_are_pinned() {
    check(
        &Scale::quick(),
        &[
            ("fig1", 0xeae5_2d7f_e040_912c),
            ("fig3", 0x07e1_1752_e952_f6b1),
            ("fig4b", 0xaeb5_d441_4882_9a6b),
            ("fig5", 0x9bc4_3422_a48d_8621),
            ("fig8", 0x41b0_54f1_b807_2e96),
            ("fig9", 0x0fb7_2e0a_2c27_cff0),
            ("fig10", 0x3f19_c077_6681_e4e7),
            ("fig11", 0xb2f5_cbad_b8e4_a60a),
            ("fig12", 0x18e1_74d1_503e_8d1d),
            ("fig13", 0x1b7c_16d6_3057_1d98),
            ("fig14", 0x3159_abfc_3a2a_129b),
            ("table2", 0x58d5_fbc4_695d_0528),
            ("table3", 0xae4c_59b2_f027_555e),
            ("table4", 0x5b6a_e5af_df75_f353),
            ("table5", 0xa2ee_ba7e_4f2b_d7cc),
            ("table6", 0xf869_d5cd_31f6_b86c),
        ],
    );
}
