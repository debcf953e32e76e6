//! The thousand-element-library bench: the fingerprint index against the
//! legacy full-library candidate scan on synthetic α-renamed catalogs of
//! ≈256 and ≈1024 elements (`symmap_libchar::synthetic`).
//!
//! The paper maps an 11-kernel decoder against a few dozen library elements,
//! where a linear scan is free. This bench is the scaling story beyond the
//! paper: when the library aggregates many subsystems' catalogs, the
//! per-element scan pays `Poly::vars()` (a sort plus a set build) for every
//! element on every mapping call, while the index answers the same question
//! with one mask test per support-homogeneous shard. Both paths return the
//! same candidates in the same order, so the mapped solutions are
//! byte-identical — asserted here before anything is timed.
//!
//! Quick mode (`SYMMAP_QUICK=1`) additionally enforces the regression floor
//! (index ≥ 5× faster than the legacy scan at ≈1024 elements) and writes the
//! prune-rate metrics JSON that CI uploads as an artifact
//! (`target/trace/prune_metrics.json`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_algebra::fingerprint::PolyFingerprint;
use symmap_algebra::poly::Poly;
use symmap_bench::{measure_ns, mp3_kernel_jobs};
use symmap_engine::{EngineConfig, MapJob, MapperConfig, MappingEngine};
use symmap_libchar::synthetic::synthetic_large_library;
use symmap_libchar::{Library, LibraryElement};
use symmap_platform::machine::Badge4;

/// The two library scales: ≈256 and ≈1024 elements (the 22-element MP3
/// catalog replicated onto 11 and 46 disjoint variable pools).
const SCALES: [(&str, usize); 2] = [("256", 11), ("1024", 46)];

fn config(index: bool) -> MapperConfig {
    MapperConfig {
        use_fingerprint_index: index,
        ..MapperConfig::default()
    }
}

/// The legacy candidate scan, verbatim from the mapper's ablation path:
/// support-intersection via `Poly::vars()` over every element, per call.
fn legacy_scan<'a>(library: &'a Library, target: &Poly) -> Vec<&'a LibraryElement> {
    let tvars = target.vars();
    library
        .iter()
        .filter(|e| e.polynomial().vars().iter().any(|v| tvars.contains(v)))
        .collect()
}

/// Runs the full 11-kernel batch with the index on and off and asserts the
/// outcomes are byte-identical. Returns `(rejected, kept, shards_skipped)`
/// from the index-on run for the prune-metrics artifact.
fn assert_identical_solutions(library: &Arc<Library>) -> (usize, usize, usize) {
    let run = |index: bool| {
        let jobs: Vec<MapJob> = mp3_kernel_jobs(library, &config(index));
        MappingEngine::new(EngineConfig::default()).run(&jobs)
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(
        format!("{:?}", on.outcomes),
        format!("{:?}", off.outcomes),
        "fingerprint index changed the mapped solutions"
    );
    assert!(on.stats.index_kept() > 0, "the index kept no candidates");
    assert!(
        on.stats.index_rejected() > on.stats.index_kept(),
        "a redundant synthetic library should prune more than it keeps"
    );
    (
        on.stats.index_rejected(),
        on.stats.index_kept(),
        on.stats.index_shards_skipped(),
    )
}

/// Writes the prune-rate metrics JSON CI uploads as an artifact. The path
/// is anchored at the workspace root (bench processes run with the package
/// directory as CWD, so a relative path would land under `crates/bench/`).
fn write_prune_metrics(rows: &[(String, usize, usize, usize, usize)]) {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf();
    let dir = root.join("target/trace");
    let dir = dir.as_path();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("large_library: cannot create {}: {e}", dir.display());
        return;
    }
    let mut json = String::from("{\n  \"schema\": 1,\n  \"libraries\": [\n");
    for (i, (label, elements, rejected, kept, shards_skipped)) in rows.iter().enumerate() {
        let rate = *rejected as f64 / (rejected + kept).max(1) as f64;
        json.push_str(&format!(
            "    {{\"library\": \"{label}\", \"elements\": {elements}, \
             \"rejected\": {rejected}, \"kept\": {kept}, \
             \"shards_skipped\": {shards_skipped}, \"prune_rate\": {rate:.4}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = dir.join("prune_metrics.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote prune metrics to {}", path.display()),
        Err(e) => eprintln!("large_library: cannot write {}: {e}", path.display()),
    }
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("SYMMAP_QUICK").is_ok();
    let badge = Badge4::new();
    let mut prune_rows = Vec::new();

    for (label, groups) in SCALES {
        let library = Arc::new(synthetic_large_library(&badge, groups));
        let (rejected, kept, shards_skipped) = assert_identical_solutions(&library);
        prune_rows.push((
            label.to_string(),
            library.len(),
            rejected,
            kept,
            shards_skipped,
        ));
        let targets: Vec<Poly> = mp3_kernel_jobs(&library, &config(true))
            .into_iter()
            .map(|j| j.target)
            .collect();
        let fps: Vec<PolyFingerprint> = targets.iter().map(PolyFingerprint::of).collect();
        // Warm steady state: the candidate scan runs once per mapping call,
        // so one iteration sweeps all 11 kernels.
        let index_sweep = || {
            for fp in &fps {
                criterion::black_box(library.candidates(fp));
            }
        };
        let legacy_sweep = || {
            for t in &targets {
                criterion::black_box(legacy_scan(&library, t));
            }
        };

        if !quick {
            c.bench_function(&format!("large_library/scan-{label}-index"), |b| {
                b.iter(index_sweep)
            });
            c.bench_function(&format!("large_library/scan-{label}-legacy"), |b| {
                b.iter(legacy_sweep)
            });
            continue;
        }
        let index_ns = measure_ns(20, 9, index_sweep);
        // The legacy scan runs hundreds of ms per sweep at the large scale —
        // sample it thinly (the gap to the index is orders of magnitude, so
        // sampling noise cannot flip the verdict).
        let legacy_ns = measure_ns(1, 3, legacy_sweep);
        let ratio = legacy_ns as f64 / index_ns as f64;
        println!(
            "large_library — {} elements ({} shards): index {index_ns} ns, \
             legacy {legacy_ns} ns, speedup {ratio:.1}x",
            library.len(),
            library.shards().len(),
        );
        println!(
            "  prune: {rejected} rejected / {kept} kept, {shards_skipped} shards skipped whole"
        );
        if label == "1024" {
            assert!(
                ratio >= 5.0,
                "index only {ratio:.1}x faster than the legacy scan at \
                 ≈1024 elements (floor is 5x)"
            );
        }
    }
    if quick {
        write_prune_metrics(&prune_rows);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
