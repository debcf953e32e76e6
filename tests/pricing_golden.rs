//! Golden regression test of the mapper's pricing path.
//!
//! Two fixed batches — the paper's 11-kernel MP3 batch on the full catalog,
//! and a small batch of MP3 stage kernels α-renamed onto copies of a
//! synthetic library — are mapped at 1 and 2 workers with tracing on. The
//! rendered outcomes (`{:#?}`, `nodes_explored` included) must equal the
//! recorded fixtures under `tests/fixtures/pricing_golden/`, and the
//! job-channel transcript must hash to the recorded digest. Any change to
//! candidate order, subset pricing, the variable order or the trace events a
//! job emits shows up here as a diff.
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
const MP3_JOB_DIGEST: u64 = 0xe267_51fe_e645_6696;
/// FNV-1a 64 of the renamed batch's job-channel transcript.
const RENAMED_JOB_DIGEST: u64 = 0x188f_ef25_249a_f376;

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

fn check_batch(name: &str, jobs: &[MapJob], job_digest: u64) {
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
    check_batch("mp3", &mp3, MP3_JOB_DIGEST);

    let synthetic = Arc::new(synthetic_large_library(&badge, 2));
    let renamed = renamed_jobs(&synthetic);
    assert_eq!(renamed.len(), 12);
    check_batch("renamed", &renamed, RENAMED_JOB_DIGEST);
}
