//! Golden regression test of the simulated decoder.
//!
//! The decoder is a cost model as much as a computation: every kernel charges
//! the SA-1110 operations its embedded counterpart would issue, and those
//! counts become the paper's Tables 3–6. This test pins both halves for the
//! four Table 6 kernel sets over the same four synthetic frames:
//!
//! * an FNV-1a digest of the PCM output's `f64::to_bits`,
//! * an FNV-1a digest of each profiled function's per-class and per-region
//!   operation counts,
//! * the profile's total cycles,
//!
//! plus a digest of every characterized element cost in the full catalog and
//! in each Table 6 library, because characterization runs the same kernels.
//! A host-side speed-up of a kernel (precomputed tables, closed-form
//! charging) must leave every line unchanged.

use symmap_core::pipeline::table6_libraries;
use symmap_libchar::{catalog, Library};
use symmap_mp3::decoder::{Decoder, KernelSet};
use symmap_mp3::frame::FrameGenerator;
use symmap_platform::cost::{InstructionClass, OpCounts};
use symmap_platform::machine::Badge4;
use symmap_platform::memory::MemoryRegion;
use symmap_platform::profiler::Profiler;

/// The pinned values, captured before the kernels were rewritten.
const EXPECTED: &[(&str, u64)] = &[
    ("reference/pcm", 0x0a9677bbc8fd2357),
    ("reference/III_antialias", 0xf16f999d0d065955),
    ("reference/III_dequantize_sample", 0xfa3837d97816e561),
    ("reference/III_get_scale_factors", 0x364b3f870ebb9ba8),
    ("reference/III_hufman_decode", 0xf66d70cb18d58644),
    ("reference/III_hybrid", 0x9db2296d7ebd7f9f),
    ("reference/III_reorder", 0x7112c5da1efd8352),
    ("reference/III_stereo", 0x06e334a43d553225),
    ("reference/SubBandSynthesis", 0xed7015deb35e69e5),
    ("reference/inv_mdctL", 0xa7c3bec67065f42a),
    ("reference/total_cycles", 210411319),
    ("in_house/pcm", 0x88872e78d680090a),
    ("in_house/III_antialias", 0xe5eb46cfc25cf220),
    ("in_house/III_dequantize_sample", 0xa2f750cf4734d455),
    ("in_house/III_get_scale_factors", 0x364b3f870ebb9ba8),
    ("in_house/III_hufman_decode", 0xf66d70cb18d58644),
    ("in_house/III_hybrid", 0x49fd707e016f999f),
    ("in_house/III_reorder", 0x7112c5da1efd8352),
    ("in_house/III_stereo", 0x67f33e550e5c8225),
    ("in_house/SubBandSynthesis", 0x9e407d73e23d8e13),
    ("in_house/inv_mdctL", 0x85901f87df317530),
    ("in_house/total_cycles", 2642375),
    ("in_house_with_ipp/pcm", 0x88872e78d680090a),
    ("in_house_with_ipp/III_antialias", 0xe5eb46cfc25cf220),
    (
        "in_house_with_ipp/III_dequantize_sample",
        0xa2f750cf4734d455,
    ),
    (
        "in_house_with_ipp/III_get_scale_factors",
        0x364b3f870ebb9ba8,
    ),
    ("in_house_with_ipp/III_hufman_decode", 0xf66d70cb18d58644),
    ("in_house_with_ipp/III_hybrid", 0x49fd707e016f999f),
    ("in_house_with_ipp/III_reorder", 0x7112c5da1efd8352),
    ("in_house_with_ipp/III_stereo", 0x67f33e550e5c8225),
    ("in_house_with_ipp/IppsMDCTInv_MP3_32s", 0xe2c74e0ba54df30d),
    (
        "in_house_with_ipp/ippsSynthPQMF_MP3_32s16s",
        0x778147b272aa582b,
    ),
    ("in_house_with_ipp/total_cycles", 1069623),
    ("ipp_complete/pcm", 0x88872e78d680090a),
    ("ipp_complete/III_antialias", 0xe5eb46cfc25cf220),
    ("ipp_complete/III_dequantize_sample", 0xdc4486f1d6601b20),
    ("ipp_complete/III_get_scale_factors", 0x3260a145cb0c2bc2),
    ("ipp_complete/III_hufman_decode", 0x983597193e17cd9c),
    ("ipp_complete/III_hybrid", 0x49fd707e016f999f),
    ("ipp_complete/III_reorder", 0xea9fcbf5b1f08e74),
    ("ipp_complete/III_stereo", 0x9d708351e8ca0745),
    ("ipp_complete/IppsMDCTInv_MP3_32s", 0xe2c74e0ba54df30d),
    ("ipp_complete/ippsSynthPQMF_MP3_32s16s", 0x778147b272aa582b),
    ("ipp_complete/total_cycles", 847510),
    ("catalog/full_catalog", 0xe9014f2edead15eb),
    ("table6/Original", 0x930ba079023245d6),
    ("table6/IPP SubBand", 0x50207b3166ebb17a),
    ("table6/IPP SubBand & IMDCT", 0x372d1af2dffd7cff),
    ("table6/IH Library", 0x0d2890b3c12483fb),
    ("table6/IH + IPP SubBand", 0xf151835bd82a518f),
    ("table6/IH + IPP SubBand & IMDCT", 0xe9014f2edead15eb),
];

/// FNV-1a 64 over a stream of words.
#[derive(Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

fn ops_digest(ops: &OpCounts) -> u64 {
    let mut h = Fnv::new();
    for class in InstructionClass::ALL {
        h.word(ops.count(class));
    }
    for region in MemoryRegion::ALL {
        h.word(ops.memory_count(region));
    }
    h.0
}

fn library_digest(library: &Library) -> u64 {
    let mut h = Fnv::new();
    for e in library.iter() {
        h.text(e.name());
        h.word(e.cycles());
        h.word(e.energy_nj().to_bits());
        h.word(e.accuracy().to_bits());
    }
    h.0
}

fn actual() -> Vec<(String, u64)> {
    let badge = Badge4::new();
    let frames = FrameGenerator::new(7).stream(4);
    let mut out = Vec::new();
    for (label, kernels) in [
        ("reference", KernelSet::reference()),
        ("in_house", KernelSet::in_house()),
        ("in_house_with_ipp", KernelSet::in_house_with_ipp()),
        ("ipp_complete", KernelSet::ipp_complete()),
    ] {
        let profiler = Profiler::new();
        let pcm = Decoder::new(kernels).decode_stream(&frames, &profiler);
        let mut h = Fnv::new();
        for v in &pcm {
            h.word(v.to_bits());
        }
        out.push((format!("{label}/pcm"), h.0));
        for (function, ops) in profiler.op_counts() {
            out.push((format!("{label}/{function}"), ops_digest(&ops)));
        }
        out.push((
            format!("{label}/total_cycles"),
            profiler.profile(&badge).total_cycles(),
        ));
    }
    out.push((
        "catalog/full_catalog".to_string(),
        library_digest(&catalog::full_catalog(&badge)),
    ));
    for (row, library) in table6_libraries(&badge) {
        out.push((format!("table6/{row}"), library_digest(&library)));
    }
    out
}

#[test]
fn decoder_output_counts_and_characterization_are_pinned() {
    let actual = actual();
    let expected: Vec<(String, u64)> = EXPECTED.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    if actual != expected {
        let rendered: String = actual
            .iter()
            .map(|(k, v)| {
                if k.ends_with("total_cycles") {
                    format!("    (\"{k}\", {v}),\n")
                } else {
                    format!("    (\"{k}\", {v:#018x}),\n")
                }
            })
            .collect();
        panic!("decoder golden values moved; actual values:\n{rendered}");
    }
}
