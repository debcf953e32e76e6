//! Every configuration value the benchmark hands the library, spelled out.
//!
//! `EngineConfig::default()` and `GroebnerOptions::default()` read
//! `SYMMAP_*` environment switches, so the benchmark never calls them: each
//! struct below is a full literal (a new field is a compile error here, not
//! a silent default), and the parent process strips every `SYMMAP_*`
//! variable from the child that runs a workload.

use symmap_algebra::groebner::GroebnerOptions;
use symmap_engine::{EngineConfig, MapperConfig};

/// Shared Gröbner cache geometry used by every engine in the benchmark.
const CACHE_SHARDS: usize = 8;
const CACHE_CAPACITY: usize = 4096;

/// Batch-engine sizing for a workload that runs `workers` threads.
pub fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        cache_shards: CACHE_SHARDS,
        cache_capacity: CACHE_CAPACITY,
        modular_prefilter: false,
        trace: false,
    }
}

/// Gröbner options of every basis the mapper prices.
pub fn groebner_options() -> GroebnerOptions {
    GroebnerOptions {
        max_iterations: 10_000,
        use_coprime_criterion: true,
        use_chain_criterion: true,
        use_sugar_tiebreak: false,
        multimodular: true,
    }
}

/// Mapper configuration of every job, carrying the engine sizing above.
pub fn mapper_config(workers: usize) -> MapperConfig {
    MapperConfig {
        max_depth: 4,
        max_nodes: 20_000,
        accuracy_tolerance: 1e-4,
        use_bounding: true,
        use_guidance: true,
        float_residual: true,
        use_fingerprint_index: true,
        groebner: groebner_options(),
        engine: engine_config(workers),
    }
}

/// One-line rendering of the effective configuration, printed with each
/// result so a reader can tell which settings produced it.
pub fn describe(workers: usize) -> String {
    format!("{:?}", mapper_config(workers))
}
