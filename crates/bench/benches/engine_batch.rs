//! The batch-engine bench: the full 11-kernel MP3 mapping batch at 1 and N
//! workers.
//!
//! Wall-clock speedup is hardware-dependent (it needs real cores), so the
//! `workers = N ≥ 2×` acceptance assertion only fires when the runner
//! actually has ≥ 4 hardware threads. Byte-identical solutions at every
//! worker count are pinned by `tests/engine_determinism.rs`, and the batch's
//! deterministic work counters by `tests/pricing_golden.rs`. With
//! `SYMMAP_QUICK=1` the bench samples more thinly and skips the Criterion
//! runs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_bench::{measure_ns, mp3_kernel_jobs};
use symmap_engine::{BatchResult, EngineConfig, MapperConfig, MappingEngine};
use symmap_libchar::catalog;
use symmap_platform::machine::Badge4;

/// Worker count for the parallel measurement (the acceptance criterion's
/// "N").
const PARALLEL_WORKERS: usize = 4;

fn engine(workers: usize) -> MappingEngine {
    MappingEngine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    })
}

/// Runs the batch on a fresh engine (cold cache) so both worker counts do
/// the same basis work and the comparison measures scheduling, not warmup.
fn run_cold(jobs: &[symmap_engine::MapJob], workers: usize) -> BatchResult {
    engine(workers).run(jobs)
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("SYMMAP_QUICK").is_ok();
    let badge = Badge4::new();
    let library = Arc::new(catalog::full_catalog(&badge));
    let jobs = mp3_kernel_jobs(&library, &MapperConfig::default());
    assert_eq!(jobs.len(), 11, "the MP3 kernel batch is 11 jobs");
    let n = PARALLEL_WORKERS;

    // Wall-clock: median of batches at workers = 1 and workers = N, cold
    // cache each iteration so every run does the full basis workload.
    let samples = if quick { 5 } else { 9 };
    let wall_1 = measure_ns(2, samples, || {
        criterion::black_box(run_cold(&jobs, 1));
    });
    let wall_n = measure_ns(2, samples, || {
        criterion::black_box(run_cold(&jobs, n));
    });
    let speedup = wall_1 as f64 / wall_n.max(1) as f64;
    let hardware = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "engine_batch: workers=1 {wall_1} ns, workers={n} {wall_n} ns, \
         speedup {speedup:.2}x on {hardware} hardware threads"
    );
    if hardware >= 4 {
        assert!(
            speedup >= 2.0,
            "11-kernel batch at {n} workers must be ≥ 2x faster than sequential \
             on a ≥ 4-core runner (got {speedup:.2}x)"
        );
    }
    if quick {
        return;
    }

    c.bench_function("engine_batch/mp3-11-kernels/workers-1", |b| {
        b.iter(|| run_cold(&jobs, 1))
    });
    c.bench_function(&format!("engine_batch/mp3-11-kernels/workers-{n}"), |b| {
        b.iter(|| run_cold(&jobs, n))
    });
    c.bench_function("engine_batch/mp3-11-kernels/warm-cache", |b| {
        let warm = engine(n);
        warm.run(&jobs);
        b.iter(|| warm.run(&jobs))
    });
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
