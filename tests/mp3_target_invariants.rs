//! Invariants of the paper's 11 MP3 kernel targets that the mapper's
//! candidate ordering relies on.
//!
//! * Their fingerprint evaluation hashes are pinned: the mapper keys its
//!   pricing memo and screens every guidance comparison on them, so a change
//!   to the hash arithmetic must leave every value bit-identical. The IMDCT
//!   lines carry 18 distinct 20-bit denominators (a ~291-bit common
//!   denominator), and their primitive parts ~291-bit integer coefficients.
//! * The factor-match key answers exactly as factoring does: for every
//!   target against every catalog element (and against the target's own
//!   primitive part and its non-normalised multiples), `FactorMatch` agrees
//!   with comparing against `factor(target)`'s factors.

use symmap::algebra::factor::{factor, is_multivariate_linear, FactorMatch};
use symmap::algebra::fingerprint::PolyFingerprint;
use symmap::algebra::poly::Poly;
use symmap::libchar::catalog;
use symmap::numeric::Rational;
use symmap::platform::machine::Badge4;
use symmap_bench::mp3_kernel_targets;

/// `t / content(t)`: the primitive part up to sign.
fn content_free(t: &Poly) -> Poly {
    t.scale(&t.content().recip().expect("nonzero target"))
}

#[test]
fn mp3_target_eval_hashes_are_pinned() {
    let pinned = [
        (
            "III_dequantize_sample",
            0x823d_2691_1cef_1ae1,
            0x458f_dce4_0086_faff,
        ),
        ("III_stereo", 0x0c79_d967_7e5e_440d, 0x5755_8c2b_284e_d9e6),
        (
            "III_antialias",
            0xf2b3_a32a_cfd9_5670,
            0xf2b3_a32a_cfd9_5670,
        ),
        ("inv_mdctL", 0x4854_53f6_c28c_7f00, 0x04cc_1a89_5c65_f7c4),
        ("III_hybrid", 0xddad_e669_7911_ebf0, 0xddad_e669_7911_ebf0),
        (
            "SubBandSynthesis",
            0xc5f0_63ae_5bef_693a,
            0x93dc_7fe5_f4fd_7232,
        ),
        ("inv_mdctL[1]", 0xcc5f_de01_b544_abc8, 0x2b65_1a24_5a24_797c),
        ("inv_mdctL[2]", 0x3fd4_4d86_8f9e_fba4, 0xfbee_19d3_5ae6_bba1),
        ("inv_mdctL[3]", 0xdd2c_f52b_3fa5_6fc9, 0x7447_c9c9_a1b2_e6ae),
        (
            "SubBandSynthesis[1]",
            0xe006_6608_e7b3_69a1,
            0x1d8c_21ac_5787_3246,
        ),
        (
            "SubBandSynthesis[2]",
            0x98e7_62b4_e6b5_b60e,
            0xb60f_babb_ffb1_5891,
        ),
    ];
    let targets = mp3_kernel_targets();
    assert_eq!(targets.len(), pinned.len());
    for ((label, target), (name, hash, content_free_hash)) in targets.iter().zip(pinned) {
        assert_eq!(label, name);
        assert_eq!(
            PolyFingerprint::of(target).eval_hash(),
            hash,
            "eval hash of {label}"
        );
        assert_eq!(
            PolyFingerprint::of(&content_free(target)).eval_hash(),
            content_free_hash,
            "eval hash of {label} over its content"
        );
    }
    // The IMDCT line really exercises wide coefficients.
    let imdct = &targets[3].1;
    assert!(imdct.content().denom().bits() > 280);
    assert!(content_free(imdct)
        .iter()
        .any(|(_, c)| c.numer().bits() > 280));
}

#[test]
fn factor_match_agrees_with_factoring_on_every_mp3_target_and_catalog_element() {
    let library = catalog::full_catalog(&Badge4::new());
    let targets = mp3_kernel_targets();
    let linear = targets
        .iter()
        .filter(|(_, t)| is_multivariate_linear(t))
        .count();
    assert_eq!(linear, 9, "nine of the eleven MP3 targets are linear");
    let mut agreed = 0;
    for (label, target) in &targets {
        let tfp = PolyFingerprint::of(target);
        let key = FactorMatch::new(target, &tfp);
        let factors = factor(target).factors;
        let oracle = |p: &Poly| factors.iter().any(|(f, _)| f == p);
        let primitive = content_free(target);
        if is_multivariate_linear(target) {
            // The positive answer is exercised on every linear target.
            assert!(
                oracle(&primitive) != oracle(&primitive.neg()),
                "{label}: exactly one sign of t / content(t) is its factor"
            );
        }
        let extra = [
            primitive.clone(),
            primitive.neg(),
            primitive.scale(&Rational::integer(2)),
            primitive.scale(&Rational::new(1, 3)),
            target.clone(),
        ];
        let candidates = library.iter().map(|e| e.polynomial().clone()).chain(extra);
        for candidate in candidates {
            let expected = oracle(&candidate);
            assert_eq!(
                key.matches(&candidate, &PolyFingerprint::of(&candidate)),
                expected,
                "factor match of {candidate} against {label}"
            );
            agreed += 1;
        }
    }
    assert_eq!(agreed, targets.len() * (library.len() + 5));
}
