//! The `tables table6` path: every Table 6 code version mapped and measured
//! through the real `OptimizationPipeline`, as `symmap_bench::table6_versions`
//! does, with the configuration pinned and the winning solutions kept.

use symmap_core::identify;
use symmap_core::pipeline::table6_libraries;
use symmap_core::OptimizationPipeline;
use symmap_core::{CodeVersion, MapperConfig, MappingEngine, MappingSolution};
use symmap_libchar::catalog;
use symmap_libchar::Library;
use symmap_mp3::decoder::{KernelSet, KernelVariant};
use symmap_platform::machine::Badge4;

/// The baseline row.
pub const ORIGINAL: &str = "Original";
/// The hand-optimized reference row (not a mapping product).
pub const IPP_MP3: &str = "IPP MP3 (hand optimized)";
/// The row whose speed-up over [`ORIGINAL`] the paper headlines.
pub const FACTOR_ROW: &str = "IH + IPP SubBand & IMDCT";
/// Rows of the table.
pub const ROWS: usize = 7;

/// Characterized inputs of one sweep.
pub struct Inputs {
    /// The six mapped versions' libraries, in table order.
    pub libraries: Vec<(String, Library)>,
    /// The library the IPP row's pipeline is built with.
    pub full_catalog: Library,
    /// Frames in the measured stream.
    pub frames: usize,
}

impl Inputs {
    /// Characterizes every library of the table.
    pub fn build(badge: &Badge4, frames: usize) -> Self {
        Inputs {
            libraries: table6_libraries(badge),
            full_catalog: catalog::full_catalog(badge),
            frames,
        }
    }
}

/// One sweep through the real pipeline on a fresh engine shared by all
/// versions. Returns the rows and the winning solutions of every mapping.
pub fn sweep(
    badge: &Badge4,
    inputs: &Inputs,
    config: &MapperConfig,
) -> (Vec<CodeVersion>, Vec<MappingSolution>) {
    let engine = MappingEngine::new(config.engine.clone());
    let pipeline = |library: &Library| {
        OptimizationPipeline::new(badge.clone(), library.clone())
            .with_stream_frames(inputs.frames)
            .with_mapper_config(config.clone())
            .with_engine(engine.clone())
    };
    let mut versions = Vec::new();
    let mut solutions = Vec::new();
    for (name, library) in &inputs.libraries {
        let pipeline = pipeline(library);
        if name == ORIGINAL {
            versions.push(pipeline.measure(ORIGINAL, KernelSet::reference()));
            continue;
        }
        // `OptimizationPipeline::run`, with the solutions kept.
        let (kernels, mapped) = pipeline.map_decoder();
        let mut version = pipeline.measure(name, kernels);
        version.mapping_summary = mapped
            .iter()
            .map(|(f, s)| format!("{f}: {}", s.summary(library)))
            .collect();
        versions.push(version);
        solutions.extend(mapped.into_iter().map(|(_, s)| s));
    }
    versions.push(pipeline(&inputs.full_catalog).measure(IPP_MP3, KernelSet::ipp_complete()));
    (versions, solutions)
}

/// The headline speed-up: [`FACTOR_ROW`] over [`ORIGINAL`].
pub fn factor(versions: &[CodeVersion]) -> Option<f64> {
    let row = |name: &str| versions.iter().find(|v| v.name == name);
    Some(row(FACTOR_ROW)?.perf_factor_vs(row(ORIGINAL)?))
}

/// Applies a mapped function's solution to the kernel selection, as the
/// pipeline's `map_decoder` does: the first used element's prefix names the
/// kernel variant of the function's decoder stage.
pub fn apply_solution(kernels: &mut KernelSet, function: &str, solution: &MappingSolution) {
    use identify::DecoderStage;
    let Some(stage) = identify::stage_of(function) else {
        return;
    };
    let Some((name, _)) = solution.used_elements.first() else {
        return;
    };
    let variant = if name.starts_with("ipp_") {
        KernelVariant::Ipp
    } else if name.starts_with("fixed_") {
        KernelVariant::Fixed
    } else if name.starts_with("float_") || name.starts_with("libm_") {
        KernelVariant::Reference
    } else {
        return;
    };
    match stage {
        DecoderStage::Dequantize => kernels.dequantize = variant,
        DecoderStage::Stereo => kernels.stereo = variant,
        DecoderStage::Antialias => kernels.antialias = variant,
        DecoderStage::Imdct => kernels.imdct = variant,
        DecoderStage::Hybrid => kernels.hybrid = variant,
        DecoderStage::Synthesis => kernels.synthesis = variant,
    }
}
