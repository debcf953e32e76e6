//! Golden regression test of the mapper's pricing path.
//!
//! Two fixed batches — the paper's 11-kernel MP3 batch on the full catalog,
//! and a small batch of MP3 stage kernels α-renamed onto copies of a
//! synthetic library — are mapped at 1 and 2 workers with tracing on. The
//! rendered outcomes (`{:#?}`, `nodes_explored` included) must equal the
//! recorded fixtures under `tests/fixtures/pricing_golden/`, and the
//! job-channel transcript must hash to the recorded digest. Any change to
//! candidate order, subset pricing, the variable order or the trace events a
//! job emits shows up here as a diff. The deterministic work counters —
//! explored nodes, basis lookups, how the lift resolved each computed basis
//! and how many CRT primes it needed, the candidate scan's index counters
//! and the S-polynomial reductions — are pinned exactly, so a change that
//! does more (or less) work for the same outcome shows up too.
//!
//! Everything runs inside one test function on purpose: `Var` handles render
//! as interner indices, so the fixtures hold only when the process interns
//! names in the same order on every run. Configurations are spelled out so a
//! change to a `Default` impl cannot move the fixtures.

use std::sync::Arc;

use symmap::algebra::groebner::GroebnerOptions;
use symmap::algebra::monomial::Monomial;
use symmap::algebra::poly::Poly;
use symmap::algebra::var::Var;
use symmap::engine::{EngineConfig, MapJob, MapperConfig, MappingEngine};
use symmap::libchar::synthetic::synthetic_large_library;
use symmap::libchar::{catalog, Library};
use symmap::platform::machine::Badge4;
use symmap_bench::mp3_kernel_jobs;
use symmap_trace::BatchTrace;

/// FNV-1a 64 of the MP3 batch's job-channel transcript.
const MP3_JOB_DIGEST: u64 = 0x8bd6_af1e_4819_8e3a;
/// FNV-1a 64 of the renamed batch's job-channel transcript.
const RENAMED_JOB_DIGEST: u64 = 0x9c83_67fe_0e84_f00e;

fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        cache_shards: 8,
        cache_capacity: 4096,
        trace: true,
        ..EngineConfig::default()
    }
}

fn mapper_config() -> MapperConfig {
    MapperConfig {
        max_depth: 4,
        max_nodes: 20_000,
        accuracy_tolerance: 1e-4,
        use_bounding: true,
        use_guidance: true,
        float_residual: true,
        use_fingerprint_index: true,
        groebner: GroebnerOptions {
            max_iterations: 10_000,
            use_coprime_criterion: true,
            use_chain_criterion: true,
            use_sugar_tiebreak: false,
            multimodular: true,
        },
        engine: engine_config(1),
    }
}

/// α-renames `p` onto the variable pool of synthetic copy `suffix`, the way
/// `symmap_libchar::synthetic` renames the copy's elements.
fn rename(p: &Poly, suffix: &str) -> Poly {
    Poly::from_terms(p.iter().map(|(m, c)| {
        let pairs: Vec<(Var, u32)> = m
            .iter()
            .map(|(v, e)| (Var::new(&format!("{}{suffix}", v.name())), e))
            .collect();
        (Monomial::from_pairs(&pairs), c.clone())
    }))
}

/// The six MP3 stage kernels renamed onto copy 0 (unperturbed) and copy 1
/// (first coefficient doubled) of a two-copy synthetic library.
fn renamed_jobs(library: &Arc<Library>) -> Vec<MapJob> {
    let kernels = mp3_kernel_jobs(library, &mapper_config());
    ["__g0", "__g1"]
        .iter()
        .flat_map(|suffix| {
            kernels.iter().take(6).map(move |k| {
                MapJob::new(
                    format!("{}{suffix}", k.label),
                    rename(&k.target, suffix),
                    Arc::clone(library),
                    mapper_config(),
                )
            })
        })
        .collect()
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The canonical transcript of the job channel alone.
fn job_transcript(trace: &BatchTrace) -> String {
    BatchTrace {
        jobs: trace.jobs.clone(),
        ..BatchTrace::default()
    }
    .deterministic_transcript()
}

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/pricing_golden/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The deterministic work of one cold batch run at one worker.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    /// Σ `nodes_explored` over the batch's solutions.
    nodes: usize,
    /// Basis lookups answered by the global cache layer.
    cache_hits: usize,
    /// Basis lookups that missed the global layer.
    cache_misses: usize,
    /// Global misses that missed the α-layer too (a Buchberger core ran).
    alpha_misses: usize,
    /// Cores the multi-modular lift produced.
    lift_success: usize,
    /// Cores computed exactly, past the lift.
    lift_bypass: usize,
    /// Lifts that could not be certified and fell back to the exact engine.
    lift_fallback: usize,
    /// Reconstruction/verification rounds that forced another prime.
    lift_retry: usize,
    /// Prime images behind the successful lifts' CRT combines.
    crt_primes: usize,
    /// Library elements that survived the fingerprint index's pruning.
    index_kept: usize,
    /// Library elements the index pruned without touching them.
    index_rejected: usize,
    /// Library shards the index dismissed whole.
    index_shards_skipped: usize,
    /// Σ S-polynomial reductions over the batch's Buchberger cores (the
    /// sample sum of the `groebner.reductions` histogram). The mapper's
    /// linear side-relation ideals need none, so any reduction is new work.
    reductions: u64,
}

fn check_batch(name: &str, jobs: &[MapJob], job_digest: u64, work: Work) {
    let expected = fixture(&format!("{name}.txt"));
    // Workers = 1 first: it interns every symbol the search introduces in
    // job order, so the parallel run cannot reorder the interner.
    for workers in [1, 2] {
        let result = MappingEngine::new(engine_config(workers)).run(jobs);
        let rendered = format!("{:#?}\n", result.outcomes);
        assert!(
            rendered == expected,
            "{name} outcomes diverged from the fixture at {workers} workers"
        );
        let stats = &result.stats;
        let measured = Work {
            nodes: result.solutions().map(|s| s.nodes_explored).sum(),
            cache_hits: stats.cache_hits(),
            cache_misses: stats.cache_misses(),
            alpha_misses: stats.cache_alpha_misses(),
            lift_success: stats.lift_success(),
            lift_bypass: stats.lift_bypass(),
            lift_fallback: stats.lift_fallback(),
            lift_retry: stats.lift_retry(),
            crt_primes: stats.crt_primes_used(),
            index_kept: stats.index_kept(),
            index_rejected: stats.index_rejected(),
            index_shards_skipped: stats.index_shards_skipped(),
            reductions: stats.metrics.histograms["groebner.reductions"].sum,
        };
        if workers == 1 {
            assert_eq!(measured, work, "{name} work counters at 1 worker");
        } else {
            // Which racing worker computes a shared basis is scheduling
            // dependent; how many lookups the batch makes is not.
            assert_eq!(
                measured.nodes, work.nodes,
                "{name} nodes at {workers} workers"
            );
            assert_eq!(
                measured.cache_hits + measured.cache_misses,
                work.cache_hits + work.cache_misses,
                "{name} basis lookups at {workers} workers"
            );
            // The candidate scan runs once per priced target, whichever
            // worker prices it.
            assert_eq!(
                (
                    measured.index_kept,
                    measured.index_rejected,
                    measured.index_shards_skipped
                ),
                (
                    work.index_kept,
                    work.index_rejected,
                    work.index_shards_skipped
                ),
                "{name} index counters at {workers} workers"
            );
        }
        let trace = result.trace.expect("tracing was enabled");
        assert_eq!(
            fnv1a(&job_transcript(&trace)),
            job_digest,
            "{name} job-channel transcript diverged at {workers} workers"
        );
    }
}

#[test]
fn pricing_outcomes_and_job_transcripts_match_the_fixtures() {
    let badge = Badge4::new();
    let catalog_library = Arc::new(catalog::full_catalog(&badge));
    let mp3 = mp3_kernel_jobs(&catalog_library, &mapper_config());
    assert_eq!(mp3.len(), 11);
    check_batch(
        "mp3",
        &mp3,
        MP3_JOB_DIGEST,
        Work {
            nodes: 41,
            cache_hits: 5,
            cache_misses: 6,
            alpha_misses: 6,
            lift_success: 4,
            lift_bypass: 2,
            lift_fallback: 0,
            lift_retry: 1,
            crt_primes: 5,
            index_kept: 30,
            index_rejected: 212,
            index_shards_skipped: 66,
            reductions: 0,
        },
    );

    let synthetic = Arc::new(synthetic_large_library(&badge, 2));
    let renamed = renamed_jobs(&synthetic);
    assert_eq!(renamed.len(), 12);
    check_batch(
        "renamed",
        &renamed,
        RENAMED_JOB_DIGEST,
        Work {
            nodes: 42,
            cache_hits: 0,
            cache_misses: 12,
            alpha_misses: 12,
            lift_success: 8,
            lift_bypass: 4,
            lift_fallback: 0,
            lift_retry: 2,
            crt_primes: 10,
            index_kept: 30,
            index_rejected: 762,
            index_shards_skipped: 240,
            reductions: 0,
        },
    );
}
