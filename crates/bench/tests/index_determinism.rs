//! The fingerprint index is a pure pruning layer: switching it on or off,
//! and running the batch on 1 or 4 workers, must render byte-identical
//! outcomes — on the paper's 11-kernel MP3 batch and on the synthetic
//! thousand-element-regime library the index was built for. With the index
//! on, the prune counters must actually move (the fast path is exercised,
//! not silently skipped).

use std::sync::Arc;

use symmap_bench::mp3_kernel_jobs;
use symmap_engine::{EngineConfig, MapJob, MapperConfig, MappingEngine};
use symmap_libchar::catalog;
use symmap_libchar::synthetic::synthetic_large_library;
use symmap_libchar::Library;
use symmap_platform::machine::Badge4;

fn engine(workers: usize) -> MappingEngine {
    MappingEngine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    })
}

fn config(index: bool) -> MapperConfig {
    MapperConfig {
        use_fingerprint_index: index,
        ..MapperConfig::default()
    }
}

/// Runs `jobs(config)` across the {index on, off} × {1, 4 workers} matrix
/// and asserts all four renders are byte-identical. Returns the prune stats
/// `(rejected, kept, shards_skipped)` of the index-on run for the caller's
/// visibility assertions.
fn assert_index_invisible(jobs: impl Fn(&MapperConfig) -> Vec<MapJob>) -> (usize, usize, usize) {
    let mut renders = Vec::new();
    let mut prune = (0, 0, 0);
    for index in [true, false] {
        for workers in [1, 4] {
            let result = engine(workers).run(&jobs(&config(index)));
            if index {
                prune = (
                    result.stats.index_rejected(),
                    result.stats.index_kept(),
                    result.stats.index_shards_skipped(),
                );
            } else {
                assert_eq!(
                    result.stats.index_rejected() + result.stats.index_kept(),
                    0,
                    "index counters moved with the index off"
                );
            }
            renders.push(format!("{:?}", result.outcomes));
        }
    }
    assert!(
        renders.iter().all(|r| r == &renders[0]),
        "mapping output depends on the fingerprint index or worker count"
    );
    prune
}

#[test]
fn mp3_batch_is_byte_identical_with_the_index_on_or_off() {
    let badge = Badge4::new();
    let library = Arc::new(catalog::full_catalog(&badge));
    let (rejected, kept, _) = assert_index_invisible(|config| mp3_kernel_jobs(&library, config));
    assert!(kept > 0, "the index kept no candidates on the MP3 batch");
    // The MP3 catalog is support-diverse enough that the scan prunes
    // something for at least one kernel.
    assert!(rejected > 0, "the index pruned nothing on the MP3 batch");
}

#[test]
fn synthetic_large_library_batch_is_byte_identical_with_the_index_on_or_off() {
    let badge = Badge4::new();
    // 8 α-renamed catalog copies ≈ 230 elements: the thousand-element shape
    // at a test-friendly size. The MP3 kernels only touch the base group, so
    // every copy's shards are skippable.
    let library: Arc<Library> = Arc::new(synthetic_large_library(&badge, 8));
    let (rejected, kept, shards_skipped) =
        assert_index_invisible(|config| mp3_kernel_jobs(&library, config));
    assert!(
        kept > 0,
        "the index kept no candidates on the synthetic batch"
    );
    assert!(
        rejected > kept,
        "a 9×-redundant library should prune more than it keeps \
         (rejected {rejected}, kept {kept})"
    );
    assert!(
        shards_skipped > 0,
        "disjoint-support groups should be skipped at shard granularity"
    );
}
