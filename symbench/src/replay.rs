//! The outside-in layer replay.
//!
//! Drives each mapping job through the layers' public functions in the
//! order `Mapper::map_polynomial` calls them, and each Table 6 version
//! through the steps of `OptimizationPipeline::run`, timing every call from
//! the benchmark's own files. The replay must reproduce the engine's and the
//! pipeline's outputs byte for byte (`nodes_explored` included); the
//! workloads check that on every pass, so a replay that drifts from the
//! program fails loudly instead of timing something else.
//!
//! It mirrors the pinned configuration only (fingerprint index and guidance
//! on, bounding on); [`Replay::new`] refuses any other.

// lint:allow-file(D2): benchmark timing; no clock read here feeds a mapping decision.

use std::sync::Arc;
use std::time::Instant;

use symmap_algebra::factor::factor;
use symmap_algebra::fingerprint::PolyFingerprint;
use symmap_algebra::groebner::{ProbeVerdict, SharedGroebnerCache};
use symmap_algebra::horner::horner_form_auto;
use symmap_algebra::poly::Poly;
use symmap_algebra::simplify::{default_var_order, SideRelations};
use symmap_algebra::var::{Var, VarSet};
use symmap_algebra::MonomialOrder;
use symmap_core::identify;
use symmap_core::{CodeVersion, CoreError, MapperConfig, MappingSolution};
use symmap_engine::cost::{combined_accuracy, CostEstimate, CostEvaluator};
use symmap_engine::Mapper;
use symmap_libchar::{Library, LibraryElement};
use symmap_mp3::compliance;
use symmap_mp3::decoder::{Decoder, KernelSet};
use symmap_mp3::frame::FrameGenerator;
use symmap_platform::machine::Badge4;
use symmap_platform::profiler::Profiler;

use crate::table6;

/// Seconds and counts accumulated per layer over one or more replay passes.
///
/// Fields ending in `_s` are leaf self times: they never overlap, so their
/// sum over the pass wall is the share of the wall the replay attributes.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub fingerprint_s: f64,
    pub candidates_s: f64,
    pub factor_s: f64,
    pub horner_s: f64,
    pub order_s: f64,
    pub relations_s: f64,
    pub cache_hit_s: f64,
    pub cache_alpha_hit_s: f64,
    pub groebner_s: f64,
    pub reduce_s: f64,
    pub cost_s: f64,
    pub mapper_new_s: f64,
    pub identify_s: f64,
    pub decode_s: f64,
    pub profile_s: f64,
    pub compliance_s: f64,
    /// Mapping inside the Table 6 sweep (a parent of the mapping leaves).
    pub core_map_s: f64,
    pub nodes: u64,
    pub prunes: u64,
    pub reduce_calls: u64,
    pub basis_calls: u64,
    pub cache_hits: u64,
    pub alpha_hits: u64,
    pub computes: u64,
    pub rejected: u64,
    pub kept: u64,
}

impl Layers {
    /// Sum of the leaf self times.
    pub fn attributed_s(&self) -> f64 {
        self.fingerprint_s
            + self.candidates_s
            + self.factor_s
            + self.horner_s
            + self.order_s
            + self.relations_s
            + self.cache_hit_s
            + self.cache_alpha_hit_s
            + self.groebner_s
            + self.reduce_s
            + self.cost_s
            + self.mapper_new_s
            + self.identify_s
            + self.decode_s
            + self.profile_s
            + self.compliance_s
    }
}

/// Runs `f` and adds its wall to `slot`.
fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// The replay of one mapper: the same inputs a `Mapper` job gets.
pub struct Replay<'a> {
    library: &'a Library,
    config: &'a MapperConfig,
    cache: &'a Arc<SharedGroebnerCache>,
    evaluator: CostEvaluator,
}

impl<'a> Replay<'a> {
    /// A replay over `library` sharing `cache`, as one engine job would.
    ///
    /// # Panics
    ///
    /// When `config` switches off a path the replay does not mirror.
    pub fn new(
        library: &'a Library,
        config: &'a MapperConfig,
        cache: &'a Arc<SharedGroebnerCache>,
    ) -> Self {
        assert!(
            config.use_fingerprint_index && config.use_guidance,
            "the replay mirrors the indexed, guided search only"
        );
        Replay {
            library,
            config,
            cache,
            evaluator: CostEvaluator::new(),
        }
    }

    /// One engine job: builds the job's `Mapper` (the engine does, per job)
    /// and replays its `map_polynomial`.
    pub fn map_job(
        &self,
        target: &Poly,
        layers: &mut Layers,
    ) -> Result<MappingSolution, CoreError> {
        let mapper = timed(&mut layers.mapper_new_s, || {
            Mapper::with_shared_cache(self.library, self.config.clone(), Arc::clone(self.cache))
        });
        let outcome = self.map_polynomial(target, layers);
        timed(&mut layers.mapper_new_s, || drop(mapper));
        outcome
    }

    fn map_polynomial(
        &self,
        target: &Poly,
        layers: &mut Layers,
    ) -> Result<MappingSolution, CoreError> {
        let tfp = timed(&mut layers.fingerprint_s, || PolyFingerprint::of(target));
        let scan = timed(&mut layers.candidates_s, || self.library.candidates(&tfp));
        layers.rejected += scan.stats.rejected as u64;
        layers.kept += scan.stats.kept as u64;
        if scan.elements.is_empty() {
            return Err(CoreError::NoCandidateElements {
                target: target.to_string(),
            });
        }
        let ordered = self.order_candidates(target, &tfp, scan.elements, layers);

        let mut best: Option<MappingSolution> = None;
        let mut nodes = 0_usize;
        let mut chosen: Vec<&LibraryElement> = Vec::new();
        self.explore(
            target,
            &ordered,
            0,
            &mut chosen,
            &mut best,
            &mut nodes,
            layers,
        )?;
        layers.nodes += nodes as u64;
        let mut best = best.ok_or_else(|| CoreError::NoAccurateSolution {
            target: target.to_string(),
            required: self.config.accuracy_tolerance,
        })?;
        best.nodes_explored = nodes;
        Ok(best)
    }

    fn order_candidates<'e>(
        &self,
        target: &Poly,
        tfp: &PolyFingerprint,
        mut candidates: Vec<&'e LibraryElement>,
        layers: &mut Layers,
    ) -> Vec<&'e LibraryElement> {
        let (factors, factor_fps) = timed(&mut layers.factor_s, || {
            let factors = factor(target);
            let fps: Vec<PolyFingerprint> = factors
                .factors
                .iter()
                .map(|(f, _)| PolyFingerprint::of(f))
                .collect();
            (factors, fps)
        });
        let (horner_expanded, horner_fp) = timed(&mut layers.horner_s, || {
            let expanded = horner_form_auto(target).expand();
            let fp = PolyFingerprint::of(&expanded);
            (expanded, fp)
        });
        timed(&mut layers.order_s, || {
            let score = |e: &LibraryElement| -> i64 {
                let efp = e.fingerprint();
                let mut s = 0_i64;
                if factor_fps
                    .iter()
                    .zip(factors.factors.iter())
                    .any(|(ffp, (f, _))| ffp.may_equal(efp) && f == e.polynomial())
                {
                    s -= 1_000_000;
                }
                if (tfp.may_equal(efp) && e.polynomial() == target)
                    || (horner_fp.may_equal(efp) && e.polynomial() == &horner_expanded)
                {
                    s -= 2_000_000;
                }
                s -= efp.shared_support_count(tfp) as i64 * 1_000;
                s + e.cycles() as i64
            };
            candidates.sort_by_key(|e| score(e));
        });
        candidates
    }

    #[allow(clippy::too_many_arguments)]
    fn explore<'e>(
        &self,
        target: &Poly,
        candidates: &[&'e LibraryElement],
        start: usize,
        chosen: &mut Vec<&'e LibraryElement>,
        best: &mut Option<MappingSolution>,
        nodes: &mut usize,
        layers: &mut Layers,
    ) -> Result<(), CoreError> {
        if *nodes >= self.config.max_nodes {
            return Ok(());
        }
        *nodes += 1;

        let solution = self.evaluate(target, chosen, layers)?;
        let chosen_element_cost: u64 = timed(&mut layers.cost_s, || {
            solution
                .used_elements
                .iter()
                .filter_map(|(n, times)| {
                    self.library.element(n).map(|e| e.cycles() * *times as u64)
                })
                .sum()
        });
        let acceptable = solution.is_accurate_within(self.config.accuracy_tolerance);
        let improves = best
            .as_ref()
            .map(|b| solution.cost.better_than(&b.cost))
            .unwrap_or(true);
        if acceptable && improves {
            *best = Some(solution);
        }
        if chosen.len() >= self.config.max_depth {
            return Ok(());
        }
        if self.config.use_bounding {
            if let Some(b) = best.as_ref() {
                if chosen_element_cost >= b.cost.cycles {
                    layers.prunes += 1;
                    return Ok(());
                }
            }
        }
        for i in start..candidates.len() {
            let candidate = candidates[i];
            if chosen
                .iter()
                .any(|e| e.output_symbol() == candidate.output_symbol())
            {
                continue;
            }
            chosen.push(candidate);
            self.explore(target, candidates, i + 1, chosen, best, nodes, layers)?;
            chosen.pop();
        }
        Ok(())
    }

    /// One subset pricing: relation build and order, cache lookup, reduce,
    /// cost — `Mapper::evaluate` with `simplify_modulo_cached` unrolled.
    fn evaluate(
        &self,
        target: &Poly,
        chosen: &[&LibraryElement],
        layers: &mut Layers,
    ) -> Result<MappingSolution, CoreError> {
        let start = Instant::now();
        let mut relations = SideRelations::new();
        for e in chosen {
            if let Err(err) = relations.push(e.output_symbol(), e.polynomial().clone()) {
                layers.relations_s += start.elapsed().as_secs_f64();
                return Err(CoreError::from(err));
            }
        }
        let order_names = default_var_order(target, &relations);
        let (rewritten, complete) = if relations.is_empty() {
            layers.relations_s += start.elapsed().as_secs_f64();
            (target.clone(), true)
        } else {
            let order_refs: Vec<&str> = order_names.iter().map(String::as_str).collect();
            let mut vars = VarSet::from_names(&order_refs);
            vars = vars.union(&target.vars());
            vars = vars.union(&relations.body_vars());
            vars = vars.union(&relations.symbols());
            let order = MonomialOrder::Lex(vars);
            let generators = relations.generators();
            layers.relations_s += start.elapsed().as_secs_f64();

            let options = &self.config.groebner;
            let (hits, alpha_hits) = (self.cache.hits(), self.cache.alpha_hits());
            let lookup = Instant::now();
            let verdict = self
                .cache
                .probe_membership_verdict(&generators, &order, options, target);
            let gb = self.cache.basis(&generators, &order, options);
            let lookup_s = lookup.elapsed().as_secs_f64();
            layers.basis_calls += 1;
            if self.cache.hits() > hits {
                layers.cache_hits += 1;
                layers.cache_hit_s += lookup_s;
            } else if self.cache.alpha_hits() > alpha_hits {
                layers.alpha_hits += 1;
                layers.cache_alpha_hit_s += lookup_s;
            } else {
                layers.computes += 1;
                layers.groebner_s += lookup_s;
            }
            match verdict {
                Some(ProbeVerdict::Certified(true)) => (Poly::zero(), gb.complete),
                _ => {
                    layers.reduce_calls += 1;
                    (
                        timed(&mut layers.reduce_s, || gb.reduce(target)),
                        gb.complete,
                    )
                }
            }
        };

        let start = Instant::now();
        let symbols: VarSet = relations.symbols();
        let mut used_elements: Vec<(String, u32)> = Vec::new();
        for e in chosen {
            let sym = Var::new(e.output_symbol());
            let occurrences: u32 = rewritten.iter().map(|(m, _)| m.degree_of(sym)).sum();
            if occurrences > 0 {
                used_elements.push((e.name().to_string(), occurrences));
            }
        }
        let mut cost = CostEstimate::zero();
        for (name, times) in &used_elements {
            let unit = self.evaluator.element_cost(self.library, name);
            cost = cost.add(&CostEstimate {
                cycles: unit.cycles * *times as u64,
                energy_nj: unit.energy_nj * *times as f64,
            });
        }
        cost = cost.add(&self.evaluator.residual_cost(
            &rewritten,
            &symbols,
            self.config.float_residual,
        ));
        let accuracy = combined_accuracy(self.library, &used_elements);
        let solution = MappingSolution {
            target: target.clone(),
            rewritten,
            used_elements,
            relations,
            cost,
            accuracy,
            nodes_explored: 0,
            basis_complete: complete,
        };
        layers.cost_s += start.elapsed().as_secs_f64();
        Ok(solution)
    }
}

/// The pipeline's measurement seed (`OptimizationPipeline` fixes it at 7).
const PIPELINE_SEED: u64 = 7;

/// Replays one Table 6 sweep: per version, target identification, mapping
/// through [`Replay`] on `cache` (shared across the sweep, as the engine's), and the
/// measurement's decode, profile and compliance steps. Returns the rows and
/// the winning solutions, as [`table6::sweep`] does.
pub fn table6_sweep(
    badge: &Badge4,
    inputs: &table6::Inputs,
    config: &MapperConfig,
    cache: &Arc<SharedGroebnerCache>,
    layers: &mut Layers,
) -> (Vec<CodeVersion>, Vec<MappingSolution>) {
    let mut versions = Vec::new();
    let mut solutions = Vec::new();
    for (name, library) in &inputs.libraries {
        if name == table6::ORIGINAL {
            versions.push(measure(
                badge,
                name,
                KernelSet::reference(),
                inputs.frames,
                layers,
            ));
            continue;
        }
        let targets = timed(&mut layers.identify_s, || {
            let frame = FrameGenerator::new(PIPELINE_SEED).frame();
            let profiler = Profiler::new();
            Decoder::new(KernelSet::reference()).decode_frame(&frame, &profiler);
            identify::identify_targets(&profiler.profile(badge), 99.99)
        });
        let map_start = Instant::now();
        let replay = Replay::new(library, config, cache);
        let mut kernels = KernelSet::reference();
        let mut summary = Vec::new();
        for target in targets {
            let Ok(solution) = replay.map_job(&target.polynomial, layers) else {
                continue;
            };
            table6::apply_solution(&mut kernels, &target.name, &solution);
            summary.push(format!("{}: {}", target.name, solution.summary(library)));
            solutions.push(solution);
        }
        layers.core_map_s += map_start.elapsed().as_secs_f64();
        let mut version = measure(badge, name, kernels, inputs.frames, layers);
        version.mapping_summary = summary;
        versions.push(version);
    }
    versions.push(measure(
        badge,
        table6::IPP_MP3,
        KernelSet::ipp_complete(),
        inputs.frames,
        layers,
    ));
    (versions, solutions)
}

/// `OptimizationPipeline::measure`, step by step.
fn measure(
    badge: &Badge4,
    name: &str,
    kernels: KernelSet,
    frames: usize,
    layers: &mut Layers,
) -> CodeVersion {
    let frame = FrameGenerator::new(PIPELINE_SEED).frame();
    let frame_profiler = Profiler::new();
    timed(&mut layers.decode_s, || {
        Decoder::new(kernels).decode_frame(&frame, &frame_profiler)
    });
    let frame_profile = timed(&mut layers.profile_s, || frame_profiler.profile(badge));

    let stream = FrameGenerator::new(PIPELINE_SEED).stream(frames);
    let stream_profiler = Profiler::new();
    let pcm = timed(&mut layers.decode_s, || {
        Decoder::new(kernels).decode_stream(&stream, &stream_profiler)
    });
    let stream_profile = timed(&mut layers.profile_s, || stream_profiler.profile(badge));
    let reference_pcm = timed(&mut layers.decode_s, || {
        Decoder::new(KernelSet::reference()).decode_stream(&stream, &Profiler::new())
    });
    let compliance = timed(&mut layers.compliance_s, || {
        compliance::compare(&reference_pcm, &pcm)
    });
    CodeVersion {
        name: name.to_string(),
        kernels,
        frame_profile,
        stream_seconds: stream_profile.total_seconds(),
        stream_energy_j: stream_profile.total_energy_j(),
        compliance,
        mapping_summary: Vec::new(),
    }
}
