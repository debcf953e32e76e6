//! Differential test of the batch engine's determinism contract: mapping the
//! full 11-kernel MP3 batch must produce byte-identical `MappingSolution`s
//! at every worker count, across repeated runs, with the multi-modular lift
//! on or off and with tracing on or off — scheduling nondeterminism may move
//! work between threads and change cache *timing*, the lift may replace
//! exact Buchberger runs and the tracer may record events, but none of them
//! may change results. (See `DESIGN.md` §5/§6 for why this holds.)

use std::sync::Arc;

use symmap::algebra::groebner::GroebnerOptions;
use symmap::engine::{BatchResult, EngineConfig, MapperConfig, MappingEngine};
use symmap::libchar::catalog;
use symmap::platform::machine::Badge4;
use symmap_bench::mp3_kernel_jobs;

fn run_batch(workers: usize, multimodular: bool, trace: bool) -> BatchResult {
    let badge = Badge4::new();
    let library = Arc::new(catalog::full_catalog(&badge));
    let config = MapperConfig {
        groebner: GroebnerOptions {
            multimodular,
            ..GroebnerOptions::default()
        },
        ..MapperConfig::default()
    };
    let jobs = mp3_kernel_jobs(&library, &config);
    assert_eq!(jobs.len(), 11);
    let engine = MappingEngine::new(EngineConfig {
        workers,
        trace,
        ..EngineConfig::default()
    });
    let batch = engine.run(&jobs);
    assert_eq!(batch.outcomes.len(), 11);
    batch
}

/// The Debug rendering covers every field of every outcome (targets,
/// rewrites, used elements, relations, costs, accuracy, node counts,
/// completeness), so equal strings mean byte-identical solutions.
fn render(batch: &BatchResult) -> String {
    format!("{:?}", batch.outcomes)
}

fn run_batch_debug(workers: usize) -> String {
    render(&run_batch(workers, true, false))
}

#[test]
fn mp3_kernel_batch_is_byte_identical_across_worker_counts() {
    let sequential = run_batch_debug(1);
    for workers in [2, 4, 8] {
        assert_eq!(
            run_batch_debug(workers),
            sequential,
            "solutions diverged at {workers} workers"
        );
    }
}

#[test]
fn mp3_kernel_batch_is_byte_identical_across_workers_lift_and_trace() {
    let reference = run_batch_debug(1);
    for workers in [1, 2, 4, 8] {
        for multimodular in [false, true] {
            for trace in [false, true] {
                let batch = run_batch(workers, multimodular, trace);
                assert_eq!(
                    render(&batch),
                    reference,
                    "solutions diverged at {workers} workers, \
                     multimodular={multimodular}, trace={trace}"
                );
                // A cold MP3 batch has ideals the profitability gate lets
                // through, so the lift must actually engage when it is on.
                let stats = &batch.stats;
                if multimodular {
                    assert!(
                        stats.lift_success() + stats.lift_fallback() >= 1,
                        "the lift never ran at {workers} workers, trace={trace}"
                    );
                }
                assert_eq!(batch.trace.is_some(), trace);
            }
        }
    }
}

#[test]
fn mp3_kernel_batch_is_stable_across_repeated_runs() {
    // Repeated runs at a parallel worker count (fresh engine each time, so
    // each run re-races the cache) must also agree.
    let first = run_batch_debug(4);
    for _ in 0..2 {
        assert_eq!(run_batch_debug(4), first);
    }
}

#[test]
fn every_mp3_kernel_solution_verifies_and_all_stage_kernels_map() {
    let badge = Badge4::new();
    let library = Arc::new(catalog::full_catalog(&badge));
    let jobs = mp3_kernel_jobs(&library, &MapperConfig::default());
    let engine = MappingEngine::new(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    let batch = engine.run(&jobs);
    // The six identified stage kernels (job indices 0..6) must all map; the
    // extra IMDCT/synthesis lines may or may not, but whatever maps must be
    // a functionally equivalent rewrite.
    for (job, outcome) in jobs.iter().zip(&batch.outcomes).take(6) {
        assert!(outcome.is_ok(), "stage kernel {} failed to map", job.label);
    }
    for (job, solution) in jobs
        .iter()
        .zip(&batch.outcomes)
        .filter_map(|(j, o)| o.as_ref().ok().map(|s| (j, s)))
    {
        assert!(
            solution.verify(),
            "{}: rewrite is not functionally equivalent",
            job.label
        );
    }
    assert!(batch.stats.cache_misses() > 0);
}
