//! The four workloads: inputs made from the seed, one timed pass through the
//! program, one traced pass through the layer replay, and the output check
//! both are held to.

// lint:allow-file(D2): benchmark timing; no clock read here feeds a mapping decision.

use std::sync::Arc;
use std::time::Instant;

use symmap_algebra::groebner::SharedGroebnerCache;
use symmap_algebra::poly::Poly;
use symmap_algebra::var::Var;
use symmap_algebra::Monomial;
use symmap_bench::{mp3_kernel_jobs, QUICK_STREAM_FRAMES};
use symmap_core::{CodeVersion, CoreError, MapJob, MapperConfig, MappingEngine, MappingSolution};
use symmap_libchar::catalog;
use symmap_libchar::synthetic::synthetic_large_library;
use symmap_libchar::Library;
use symmap_platform::machine::Badge4;
use symmap_trace::SchedEvent;

use crate::config;
use crate::replay::{self, Layers, Replay};
use crate::table6;

/// What a workload is and how it is driven.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Worker threads of the workload's engine.
    pub workers: usize,
    /// Batches one timed pass runs back to back. The MP3 batch takes about
    /// 6 ms, shorter than the host's scheduling stalls; four to a pass keep
    /// the tail a figure of the program rather than of the host.
    pub batches: usize,
    /// Host-reference kernel units run before each pass on each of the
    /// workload's threads, sized so the kernel takes about a sixth of the
    /// pass's wall.
    pub ref_units: usize,
    /// Times a run builds the inputs; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Every workload, in `BENCHMARK.json` order.
const SPECS: [Spec; 4] = [
    Spec {
        name: "mp3-cold",
        workers: 1,
        batches: 4,
        ref_units: 10,
        setup_reps: 15,
    },
    Spec {
        name: "mp3-warm",
        workers: 1,
        batches: 4,
        ref_units: 10,
        setup_reps: 15,
    },
    Spec {
        name: "renamed-1k",
        workers: 2,
        batches: 1,
        ref_units: 130,
        setup_reps: 5,
    },
    Spec {
        name: "table6",
        workers: 1,
        batches: 1,
        ref_units: 90,
        setup_reps: 15,
    },
];

/// The synthetic library of `renamed-1k`: the catalog plus this many
/// α-renamed copies (1034 elements).
const RENAMED_COPIES: usize = 46;
/// Copies whose variable pools `renamed-1k` maps the MP3 kernels onto: one
/// per run of three consecutive copies, the last run being the last copy.
const RENAMED_GROUPS: usize = 16;
const _: () = assert!(RENAMED_COPIES.div_ceil(3) == RENAMED_GROUPS && RENAMED_COPIES % 3 == 1);

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// SplitMix64: the benchmark's only source of seeded choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The workload's inputs (one per run, so variant sizes do not matter).
#[allow(clippy::large_enum_variant)]
enum Inputs {
    /// A batch of mapping jobs; `warm` holds the engine whose cache set-up
    /// filled (`mp3-warm` only).
    Batch {
        jobs: Vec<MapJob>,
        warm: Option<MappingEngine>,
    },
    Table6 {
        badge: Badge4,
        inputs: table6::Inputs,
    },
}

/// What one pass produced, reduced to the checked form: one debug rendering
/// per job (per row on `table6`), and every winning solution.
struct Output {
    rendered: Vec<String>,
    solutions: Vec<MappingSolution>,
    failed_jobs: usize,
    table6_factor: Option<f64>,
}

impl Output {
    fn from_batch(outcomes: &[Result<MappingSolution, CoreError>]) -> Self {
        Output {
            rendered: outcomes.iter().map(|o| format!("{o:?}")).collect(),
            solutions: outcomes
                .iter()
                .filter_map(|o| o.as_ref().ok())
                .cloned()
                .collect(),
            failed_jobs: outcomes.iter().filter(|o| o.is_err()).count(),
            table6_factor: None,
        }
    }

    fn from_table6(versions: &[CodeVersion], solutions: Vec<MappingSolution>) -> Self {
        Output {
            rendered: versions.iter().map(|v| format!("{v:?}")).collect(),
            solutions,
            failed_jobs: 0,
            table6_factor: table6::factor(versions),
        }
    }
}

/// The result of checking a pass against the reference.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// Jobs (rows on `table6`) checked.
    pub jobs: usize,
    /// Jobs that errored, failed `verify()` or differ from the reference.
    pub failed: usize,
    /// Sum of the winning `cost.cycles` over one batch.
    pub cycles: u64,
    pub table6_factor: Option<f64>,
    /// Seconds spent in `MappingSolution::verify`.
    pub verify_s: f64,
}

/// A set-up workload, ready for timed or traced passes.
pub struct Workload {
    pub spec: Spec,
    config: MapperConfig,
    inputs: Inputs,
    /// The program's output on a fresh engine, one rendering per job.
    reference: Vec<String>,
    /// The replay's cache on `mp3-warm` (filled by its reference pass).
    replay_cache: Option<Arc<SharedGroebnerCache>>,
    /// Seconds spent building the library (characterization and shards).
    pub library_build_s: f64,
}

impl Workload {
    /// Builds the inputs of `spec` from `seed`. For `mp3-warm` this
    /// includes filling the engine's cache. Everything here counts as
    /// set-up time.
    pub fn setup(spec: Spec, seed: u64) -> Self {
        let config = config::mapper_config(spec.workers);
        let badge = Badge4::new();
        let mut rng = Rng(seed);
        let build = Instant::now();
        let built_s = || build.elapsed().as_secs_f64();
        let (inputs, library_build_s) = match spec.name {
            "mp3-cold" | "mp3-warm" => {
                let library = Arc::new(catalog::full_catalog(&badge));
                let library_build_s = built_s();
                let mut jobs = mp3_kernel_jobs(&library, &config);
                rng.shuffle(&mut jobs);
                let warm = (spec.name == "mp3-warm").then(|| {
                    let engine = MappingEngine::new(config.engine.clone());
                    engine.run(&jobs);
                    engine
                });
                (Inputs::Batch { jobs, warm }, library_build_s)
            }
            "renamed-1k" => {
                let library = Arc::new(synthetic_large_library(&badge, RENAMED_COPIES));
                let library_build_s = built_s();
                let jobs = renamed_jobs(&library, &config, &mut rng);
                (Inputs::Batch { jobs, warm: None }, library_build_s)
            }
            "table6" => {
                let inputs = table6::Inputs::build(&badge, QUICK_STREAM_FRAMES);
                (Inputs::Table6 { badge, inputs }, built_s())
            }
            other => panic!("unknown workload {other}"),
        };
        Workload {
            spec,
            config,
            inputs,
            reference: Vec::new(),
            replay_cache: None,
            library_build_s,
        }
    }

    /// Jobs per batch (rows on `table6`).
    pub fn jobs(&self) -> usize {
        match &self.inputs {
            Inputs::Batch { jobs, .. } => jobs.len(),
            Inputs::Table6 { .. } => table6::ROWS,
        }
    }

    /// Fixes the reference output every later pass is held to: one pass of
    /// the program on a fresh engine, which must verify and which the layer
    /// replay must reproduce byte for byte.
    ///
    /// # Errors
    ///
    /// Describes the first job where the replay and the engine disagree, or
    /// where the engine's own output fails its checks.
    pub fn fix_reference(&mut self) -> Result<Checked, String> {
        // On `mp3-warm` the reference comes from a fresh engine, so warm
        // passes are held to the cold output.
        let engine = match &self.inputs {
            Inputs::Batch { jobs, .. } => Output::from_batch(
                &MappingEngine::new(self.config.engine.clone())
                    .run(jobs)
                    .outcomes,
            ),
            Inputs::Table6 { .. } => self.engine_output(),
        };
        self.reference = engine.rendered.clone();
        if self.spec.name == "mp3-warm" {
            self.replay_cache = Some(self.fresh_cache());
        }
        let replayed = self.replay_output(&self.replay_cache(), &mut Layers::default());
        if replayed.rendered.len() != engine.rendered.len() {
            return Err(format!(
                "the layer replay produced {} outputs, the program {}",
                replayed.rendered.len(),
                engine.rendered.len()
            ));
        }
        for (i, (e, r)) in engine.rendered.iter().zip(&replayed.rendered).enumerate() {
            if e != r {
                return Err(format!(
                    "the layer replay diverged from the program at job {i}:\n  program: {e}\n  replay:  {r}"
                ));
            }
        }
        let checked = self.check(engine);
        if checked.failed > 0 {
            return Err(format!(
                "{} of {} reference jobs failed",
                checked.failed, checked.jobs
            ));
        }
        Ok(checked)
    }

    fn fresh_cache(&self) -> Arc<SharedGroebnerCache> {
        Arc::new(SharedGroebnerCache::with_config(
            self.config.engine.cache_config(),
        ))
    }

    /// The replay's cache for one pass: the warm one on `mp3-warm`, a fresh
    /// one otherwise (as the engine's).
    fn replay_cache(&self) -> Arc<SharedGroebnerCache> {
        match &self.replay_cache {
            Some(cache) => Arc::clone(cache),
            None => self.fresh_cache(),
        }
    }

    fn engine_output(&self) -> Output {
        match &self.inputs {
            Inputs::Batch { jobs, warm } => {
                let outcomes = match warm {
                    Some(engine) => engine.run(jobs).outcomes,
                    None => {
                        MappingEngine::new(self.config.engine.clone())
                            .run(jobs)
                            .outcomes
                    }
                };
                Output::from_batch(&outcomes)
            }
            Inputs::Table6 { badge, inputs } => {
                let (versions, solutions) = table6::sweep(badge, inputs, &self.config);
                Output::from_table6(&versions, solutions)
            }
        }
    }

    fn replay_output(&self, cache: &Arc<SharedGroebnerCache>, layers: &mut Layers) -> Output {
        match &self.inputs {
            Inputs::Batch { jobs, .. } => {
                let outcomes: Vec<_> = jobs
                    .iter()
                    .map(|job| {
                        Replay::new(&job.library, &job.config, cache).map_job(&job.target, layers)
                    })
                    .collect();
                Output::from_batch(&outcomes)
            }
            Inputs::Table6 { badge, inputs } => {
                let (versions, solutions) =
                    replay::table6_sweep(badge, inputs, &self.config, cache, layers);
                Output::from_table6(&versions, solutions)
            }
        }
    }

    /// One timed pass of `batches` back-to-back batches through the
    /// program; returns its wall in seconds and its checked output.
    pub fn timed_pass(&self, batches: usize) -> (f64, Checked) {
        let start = Instant::now();
        let outputs: Vec<Output> = (0..batches).map(|_| self.engine_output()).collect();
        let wall = start.elapsed().as_secs_f64();
        let mut checked = outputs.into_iter().map(|output| self.check(output));
        let first = checked.next().expect("a pass runs at least one batch");
        let all = checked.fold(first, |acc, c| Checked {
            jobs: acc.jobs + c.jobs,
            failed: acc.failed + c.failed,
            verify_s: acc.verify_s + c.verify_s,
            ..acc
        });
        (wall, all)
    }

    /// One traced pass through the layer replay; returns its wall in
    /// seconds and its checked output, and adds the pass's layer times and
    /// cache activity to `layers` and `lift`.
    pub fn replay_pass(&self, layers: &mut Layers, lift: &mut LiftCounts) -> (f64, Checked) {
        let cache = self.replay_cache();
        let before = cache.metrics_snapshot();
        let start = Instant::now();
        let output = self.replay_output(&cache, layers);
        let wall = start.elapsed().as_secs_f64();
        let delta = cache.metrics_snapshot().delta_since(&before);
        lift.success += delta.counter("lift.success");
        lift.fallback += delta.counter("lift.fallback");
        lift.bypass += delta.counter("lift.bypass");
        lift.reductions += delta
            .histograms
            .get("groebner.reductions")
            .map_or(0, |h| h.sum);
        (wall, self.check(output))
    }

    /// A traced engine pass for the pool's scheduling figures: steals and
    /// the share of worker time spent running jobs. `None` on `table6`,
    /// whose batches run inside the pipeline.
    pub fn pool_pass(&self) -> Option<(usize, f64)> {
        let Inputs::Batch { jobs, warm } = &self.inputs else {
            return None;
        };
        let traced = symmap_core::EngineConfig {
            trace: true,
            ..self.config.engine.clone()
        };
        let engine = match warm {
            Some(engine) => MappingEngine::with_shared_cache(traced, Arc::clone(engine.cache())),
            None => MappingEngine::new(traced),
        };
        let batch = engine.run(jobs);
        let trace = batch.trace?;
        Some((
            batch.stats.steals,
            busy_share(&trace.sched, batch.stats.workers),
        ))
    }

    /// Checks a pass: every job must succeed, verify, and match the
    /// reference byte for byte.
    fn check(&self, output: Output) -> Checked {
        let jobs = self.jobs();
        let mut failed = output.failed_jobs;
        if output.rendered.len() == jobs {
            failed += output
                .rendered
                .iter()
                .zip(&self.reference)
                .filter(|(got, want)| got != want)
                .count();
        } else {
            // A missing or extra row fails the whole pass.
            failed = jobs;
        }
        let start = Instant::now();
        failed += output.solutions.iter().filter(|s| !s.verify()).count();
        Checked {
            jobs,
            failed: failed.min(jobs),
            cycles: output.solutions.iter().map(|s| s.cost.cycles).sum(),
            table6_factor: output.table6_factor,
            verify_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// Multi-modular lift and Buchberger counters of the replay's cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiftCounts {
    pub success: u64,
    pub fallback: u64,
    pub bypass: u64,
    pub reductions: u64,
}

/// Share of the workers' wall spent inside jobs, from the pool's sched
/// events (`pool.start`/`pool.steal` … `pool.finish`).
fn busy_share(sched: &[SchedEvent], workers: usize) -> f64 {
    let (Some(first), Some(last)) = (
        sched.iter().map(|e| e.ts_ns).min(),
        sched.iter().map(|e| e.ts_ns).max(),
    ) else {
        return 0.0;
    };
    let mut started: Vec<(u64, u64)> = Vec::new();
    let mut busy_ns = 0_u64;
    for event in sched {
        let job = event
            .args
            .iter()
            .find(|(k, _)| *k == "job")
            .map(|(_, v)| *v);
        let Some(job) = job else { continue };
        match event.name {
            "pool.start" | "pool.steal" => started.push((job, event.ts_ns)),
            "pool.finish" => {
                if let Some(pos) = started.iter().position(|(j, _)| *j == job) {
                    busy_ns += event.ts_ns - started.swap_remove(pos).1;
                }
            }
            _ => {}
        }
    }
    let span = (last - first).max(1) * workers as u64;
    busy_ns as f64 / span as f64
}

/// `renamed-1k`'s jobs: the MP3 kernels α-renamed onto seed-chosen copies of
/// the catalog, in seed-shuffled order.
fn renamed_jobs(library: &Arc<Library>, config: &MapperConfig, rng: &mut Rng) -> Vec<MapJob> {
    let kernels = mp3_kernel_jobs(library, config);
    // Monomials store exponents densely by interner index, so a copy's cost
    // grows with its position in the library. One copy is drawn from each
    // run of three consecutive copies (the last run is copy 45 alone), with
    // the seed dealing the perturbation classes `g mod 3` evenly over the
    // runs: every seed spans the whole library at the same total width and
    // maps onto every class.
    let mut classes: Vec<usize> = (0..RENAMED_GROUPS - 1).map(|run| run % 3).collect();
    rng.shuffle(&mut classes);
    classes.push(0);
    let groups: Vec<usize> = classes
        .iter()
        .enumerate()
        .map(|(run, class)| 3 * run + class)
        .collect();
    let mut jobs: Vec<MapJob> = groups
        .iter()
        .flat_map(|g| {
            let suffix = format!("__g{g}");
            kernels.iter().map(move |k| {
                MapJob::new(
                    format!("{}{suffix}", k.label),
                    rename(&k.target, &suffix),
                    Arc::clone(library),
                    config.clone(),
                )
            })
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

/// α-renames `p` onto the variable pool of one synthetic copy, the way
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
