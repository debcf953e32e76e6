//! # symmap-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! DAC 2002 evaluation on the simulated Badge4.
//!
//! Two entry points:
//!
//! * `cargo run -p symmap-bench --bin tables --release` prints the
//!   reproductions of Table 1, Equation 1, the §3.3 Maple examples, Tables
//!   3–6, Figure 1 and the DVFS headroom analysis (pass a table name to print
//!   only one).
//! * `cargo bench` runs the Criterion benchmarks, one per table/figure plus
//!   the four ablations listed in `DESIGN.md`.
//!
//! The helpers here are shared between the benches and the `tables` binary.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod budgets;

use std::sync::Arc;
use std::time::Instant;

use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;
use symmap_algebra::simplify::{default_var_set, SideRelations};
use symmap_core::pipeline::{table6_libraries, CodeVersion, OptimizationPipeline};
use symmap_engine::{EngineConfig, MapJob, MapperConfig, MappingEngine};
use symmap_libchar::catalog;
use symmap_libchar::Library;
use symmap_mp3::decoder::KernelSet;
use symmap_mp3::{imdct, synthesis};
use symmap_platform::machine::Badge4;

/// Number of frames in the measured stream for the quick (bench) runs.
pub const QUICK_STREAM_FRAMES: usize = 4;
/// Number of frames used by the `tables` binary (the paper's stream is about
/// 194 frames: 503.92 s of original decode at 2.59 s per frame).
pub const FULL_STREAM_FRAMES: usize = 194;

/// Builds the pipeline for a named Table 6 configuration.
pub fn pipeline_for(name: &str, badge: &Badge4, frames: usize) -> Option<OptimizationPipeline> {
    table6_libraries(badge)
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, lib)| OptimizationPipeline::new(badge.clone(), lib).with_stream_frames(frames))
}

/// Measures every code version of Table 6 (six mapper-produced versions plus
/// the hand-optimized IPP MP3 reference point).
///
/// The sweep runs through one shared batch engine: every version's mapping
/// batch uses the engine's worker pool, and one shared Gröbner cache answers
/// side-relation lookups across *all* versions (each version's library is a
/// superset of "Original"'s reference elements, so the overlap is large).
/// The versions themselves are measured in order on the calling thread —
/// deliberately *not* a second pool layer: nesting a version-level pool
/// around the engine's per-batch pool would oversubscribe the cores
/// (`workers²` threads) and, worse, run each batch's pre-interning step on a
/// racing outer worker, re-opening exactly the interner side channel the
/// engine closes (DESIGN.md §5). One level of parallelism, deterministic by
/// construction.
pub fn table6_versions(badge: &Badge4, frames: usize) -> Vec<CodeVersion> {
    let engine = MappingEngine::new(EngineConfig::default());
    let mut versions = Vec::new();
    for (name, library) in table6_libraries(badge) {
        let pipeline = OptimizationPipeline::new(badge.clone(), library)
            .with_stream_frames(frames)
            .with_engine(engine.clone());
        if name == "Original" {
            versions.push(pipeline.measure("Original", KernelSet::reference()));
        } else {
            versions.push(pipeline.run(&name));
        }
    }
    let pipeline = OptimizationPipeline::new(badge.clone(), catalog::full_catalog(badge))
        .with_stream_frames(frames);
    versions.push(pipeline.measure("IPP MP3 (hand optimized)", KernelSet::ipp_complete()));
    versions
}

/// The 11-kernel MP3 mapping batch: one [`MapJob`] per mapped decoder kernel
/// line (see [`mp3_kernel_targets`]). This is the workload of the
/// `engine_batch` bench and of the cross-worker determinism test.
pub fn mp3_kernel_jobs(library: &Arc<Library>, config: &MapperConfig) -> Vec<MapJob> {
    mp3_kernel_targets()
        .into_iter()
        .map(|(label, poly)| MapJob::new(label, poly, Arc::clone(library), config.clone()))
        .collect()
}

/// The 11 labelled MP3 kernel targets of [`mp3_kernel_jobs`]. The six
/// identified stage kernels (dequantize, stereo, antialias, IMDCT line 0,
/// hybrid, synthesis line 0 — exactly what
/// `OptimizationPipeline::map_decoder` maps) plus further IMDCT lines 1–3
/// and synthesis subbands 1–2, each a distinct 16/18-term linear form.
pub fn mp3_kernel_targets() -> Vec<(String, Poly)> {
    let mut targets = vec![
        (
            "III_dequantize_sample".into(),
            catalog::dequantizer_polynomial(),
        ),
        ("III_stereo".into(), catalog::stereo_polynomial()),
        ("III_antialias".into(), catalog::antialias_polynomial()),
        ("inv_mdctL".into(), imdct::imdct_polynomial(0, 36)),
        ("III_hybrid".into(), catalog::hybrid_polynomial()),
        (
            "SubBandSynthesis".into(),
            synthesis::synthesis_polynomial(0),
        ),
    ];
    for line in 1..=3 {
        targets.push((
            format!("inv_mdctL[{line}]"),
            imdct::imdct_polynomial(line, 36),
        ));
    }
    for subband in 1..=2 {
        targets.push((
            format!("SubBandSynthesis[{subband}]"),
            synthesis::synthesis_polynomial(subband),
        ));
    }
    debug_assert_eq!(targets.len(), 11);
    targets
}

/// The hottest reduction shape of the warm MP3 batch: IMDCT output line 1
/// reduced modulo the side relation of the IMDCT library element (body:
/// line 0, output symbol `md`), under the lex order the mapper builds from
/// [`default_var_set`]. Returns `(target, generators, order)`.
pub fn imdct_reduction_workload() -> (Poly, Vec<Poly>, MonomialOrder) {
    let target = imdct::imdct_polynomial(1, 36);
    let mut relations = SideRelations::new();
    relations
        .push("md", imdct::imdct_polynomial(0, 36))
        .expect("fresh output symbol");
    let order = MonomialOrder::Lex(default_var_set(&target.vars(), &relations));
    (target, relations.generators(), order)
}

/// Median per-iteration wall clock of `f`, in nanoseconds: the same-run
/// sampler behind the benches' speedup and overhead assertions.
///
/// Runs `samples` timed batches of `iters` calls each after a small warm-up
/// and reports the median batch divided by `iters` — robust against one-off
/// scheduler noise without needing a statistics dependency.
pub fn measure_ns<F: FnMut()>(iters: u32, samples: usize, mut f: F) -> u128 {
    for _ in 0..iters.min(3) {
        f();
    }
    let mut batches: Vec<u128> = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        batches.push(start.elapsed().as_nanos());
    }
    batches.sort_unstable();
    batches[batches.len() / 2] / iters.max(1) as u128
}

/// Measures a single named version (used by the per-table benches).
pub fn measure_version(name: &str, badge: &Badge4, frames: usize) -> CodeVersion {
    let pipeline = pipeline_for(name, badge, frames).unwrap_or_else(|| {
        OptimizationPipeline::new(badge.clone(), catalog::full_catalog(badge))
            .with_stream_frames(frames)
    });
    if name == "Original" {
        pipeline.measure("Original", KernelSet::reference())
    } else {
        pipeline.run(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_lookup_knows_the_table6_names() {
        let badge = Badge4::new();
        assert!(pipeline_for("Original", &badge, 1).is_some());
        assert!(pipeline_for("IH Library", &badge, 1).is_some());
        assert!(pipeline_for("No Such Version", &badge, 1).is_none());
    }

    #[test]
    fn mp3_kernel_target_contents_match_bigint_accumulators() {
        use symmap_numeric::{BigInt, Rational};
        for (label, target) in mp3_kernel_targets() {
            let mut num_gcd = BigInt::zero();
            let mut den_lcm = BigInt::one();
            for (_, c) in target.iter() {
                num_gcd = num_gcd.gcd(&c.numer());
                den_lcm = den_lcm.lcm(&c.denom());
            }
            assert_eq!(
                target.content(),
                Rational::from_bigints(num_gcd, den_lcm),
                "{label}"
            );
        }
    }

    #[test]
    fn measure_returns_positive_for_nontrivial_work() {
        let ns = measure_ns(4, 3, || {
            let v: Vec<u64> = (0..512).collect();
            assert_eq!(criterion::black_box(v).len(), 512);
        });
        assert!(ns > 0);
    }

    #[test]
    fn quick_table6_has_seven_rows_in_order() {
        let badge = Badge4::new();
        let versions = table6_versions(&badge, 1);
        assert_eq!(versions.len(), 7);
        assert_eq!(versions[0].name, "Original");
        assert!(versions.last().unwrap().name.contains("IPP MP3"));
        // Monotone improvement from Original through the best automatic mapping.
        let original = &versions[0];
        let best_auto = &versions[5];
        assert!(best_auto.perf_factor_vs(original) > 50.0);
    }
}
