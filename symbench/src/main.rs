//! The symmap benchmark (see `BENCHMARK.json` at the repository root).
//!
//! ```text
//! cargo run --release --manifest-path symbench/Cargo.toml -- \
//!     --workload mp3-cold --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path symbench/Cargo.toml -- --smoke
//! ```
//!
//! Each run sets the workload up in a fresh child process whose environment
//! holds no `SYMMAP_*` variable, measures it for `--seconds` in a closed loop
//! of passes, checks every pass's output against the reference (byte for
//! byte, plus `MappingSolution::verify`), and prints one JSON result as the
//! last line of standard output. Lines starting with `#` before it record the
//! effective configuration, the raw walls and the host-reference kernel's
//! raw wall.
//!
//! `--trace 0` times the program end to end. Walls are reported as ratios to
//! the host-reference kernel ([`hostref`]) run just before each pass, because
//! the raw walls of a shared host drift by more than any useful bound;
//! `jobs_per_s` and `setup_s` are reported at the kernel's nominal speed.
//! `--trace 1` times the layer replay ([`replay`]) instead and reports
//! per-layer figures (per batch; zero where a workload does not run a
//! layer). `--smoke` runs one pass of every workload in both modes and checks
//! the printed metric names against `BENCHMARK.json`.

// lint:allow-file(D2): benchmark timing; no clock read here feeds a mapping decision.

mod config;
mod hostref;
mod replay;
mod stats;
mod table6;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use symmap_trace::{parse_json, JsonValue};

use hostref::HostRef;
use replay::Layers;
use stats::{median, tail, Metric};
use workloads::{Checked, LiftCounts, Spec, Workload};

/// Timed passes a run makes at least, so the tail percentile has ten
/// samples beyond it and sits above the median.
const MIN_TIMED_PASSES: usize = 25;
/// Replay passes a traced run makes at least.
const MIN_REPLAY_PASSES: usize = 3;

const USAGE: &str = "usage: symbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       symbench --smoke";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run the workload in this process (set by the parent).
    child: bool,
    /// One set-up and one pass: the smoke test's run.
    smoke: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: -1.0,
        trace: false,
        child: false,
        smoke: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--child" => args.child = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("symbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let declared = match Declared::load() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("symbench: BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return run_child(&args);
    }
    if args.smoke && args.workload.is_empty() {
        return smoke(&declared);
    }
    let spec = match workloads::spec(&args.workload) {
        Some(spec) if declared.workloads.contains(&args.workload) => spec,
        _ => {
            eprintln!("symbench: unknown workload {:?}\n{USAGE}", args.workload);
            return ExitCode::from(2);
        }
    };
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        eprintln!("symbench: --seconds takes a non-negative number\n{USAGE}");
        return ExitCode::from(2);
    }
    match run_parent(&args, spec, &declared) {
        Ok(stdout) => {
            print!("{stdout}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("symbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What `BENCHMARK.json` declares: workload names and, per mode, the
/// metric names with their units.
struct Declared {
    workloads: Vec<String>,
    end_to_end: BTreeMap<String, String>,
    per_layer: BTreeMap<String, String>,
}

impl Declared {
    fn load() -> Result<Self, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let json = parse_json(&text)?;
        let root = json.as_object().ok_or("not an object")?;
        let list = |key: &str| -> Result<&[JsonValue], String> {
            root.get(key)
                .and_then(JsonValue::as_array)
                .ok_or(format!("{key} is not a list"))
        };
        let field = |v: &JsonValue, key: &str| -> Result<String, String> {
            v.as_object()
                .and_then(|o| o.get(key))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("an entry lacks {key}"))
        };
        let metrics = |key: &str| -> Result<BTreeMap<String, String>, String> {
            list(key)?
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect()
        };
        Ok(Declared {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Checks a result line: exactly the four keys, and exactly the metric
    /// names and units declared for the mode, each with a number.
    fn check_result(&self, line: &str, trace: bool) -> Result<(), String> {
        let json = parse_json(line).map_err(|e| format!("result is not JSON: {e}"))?;
        let root = json.as_object().ok_or("result is not an object")?;
        let keys: Vec<&str> = root.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("result has keys {keys:?}"));
        }
        let metrics = root["metrics"]
            .as_object()
            .ok_or("metrics is not an object")?;
        let want = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let got: Vec<&String> = metrics.keys().collect();
        if !got.iter().copied().eq(want.keys()) {
            return Err(format!(
                "metric names differ from BENCHMARK.json: printed {got:?}, declared {:?}",
                want.keys().collect::<Vec<_>>()
            ));
        }
        for (name, m) in metrics {
            let m = m.as_object().ok_or(format!("{name} is not an object"))?;
            if !matches!(m.get("value"), Some(JsonValue::Number(_))) {
                return Err(format!("{name} has no numeric value"));
            }
            if m.get("unit").and_then(JsonValue::as_str) != Some(want[name].as_str()) {
                return Err(format!("{name} has a unit other than {}", want[name]));
            }
        }
        Ok(())
    }
}

/// Runs the workload in a child process with every `SYMMAP_*` variable
/// removed, waits for it, checks its result line, and returns its output.
fn run_parent(args: &Args, spec: Spec, declared: &Declared) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        spec.name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // lint:allow(D5): reads variable names only, to strip SYMMAP_* switches.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SYMMAP_") {
            cmd.env_remove(key);
        }
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the workload: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "workload {} failed ({}); last output line: {last}",
            spec.name, output.status
        ));
    }
    declared.check_result(last, args.trace)?;
    Ok(stdout)
}

/// One pass of every declared workload in both modes on seed 1.
fn smoke(declared: &Declared) -> ExitCode {
    let mut ok = true;
    for name in &declared.workloads {
        let Some(spec) = workloads::spec(name) else {
            eprintln!("smoke: BENCHMARK.json declares {name}, which the benchmark lacks");
            ok = false;
            continue;
        };
        for trace in [false, true] {
            let args = Args {
                workload: name.clone(),
                seed: 1,
                seconds: 0.0,
                trace,
                child: false,
                smoke: true,
            };
            match run_parent(&args, spec, declared) {
                Ok(_) => println!("smoke: {name} --trace {} ok", trace as u8),
                Err(e) => {
                    eprintln!("smoke: {name} --trace {}: {e}", trace as u8);
                    ok = false;
                }
            }
        }
    }
    if ok {
        println!("smoke: every workload ran, matched the replay and printed the declared metrics");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The child: set-up, reference, then the timed or traced passes.
fn run_child(args: &Args) -> ExitCode {
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!("symbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let reps = if args.smoke { 1 } else { spec.setup_reps };
    let host = HostRef::new();
    let (mut setup_s, mut setup_refs, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut workload = None;
    for _ in 0..reps {
        drop(workload.take());
        setup_refs.push(host.time(spec.ref_units, spec.workers));
        let start = Instant::now();
        let w = Workload::setup(spec, args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        build_s.push(w.library_build_s);
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");
    let reference = match workload.fix_reference() {
        Ok(reference) => reference,
        Err(e) => {
            eprintln!("symbench: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload {} seed {} jobs {} batches/pass {} workers {} (available parallelism {})",
        spec.name,
        args.seed,
        workload.jobs(),
        spec.batches,
        spec.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("# config {}", config::describe(spec.workers));
    println!("# raw setup_s p50 {:.6}", median(&setup_s));
    let min_passes = |n: usize| if args.smoke { 1 } else { n };
    let run = Run {
        args,
        workload: &workload,
        reference,
        host,
        setup_s: median(&setup_s) / stats::mean(&setup_refs) * nominal_ref_s(spec),
        build_s: median(&build_s),
    };
    let (correct, attempted, failed, metrics) = if args.trace {
        run.traced(min_passes(MIN_REPLAY_PASSES))
    } else {
        run.timed(min_passes(MIN_TIMED_PASSES))
    };
    if failed > 0 || !correct {
        eprintln!(
            "symbench: {}: {failed} of {attempted} jobs failed their checks",
            spec.name
        );
    }
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Wall of the workload's host-reference measurement at the kernel's nominal
/// speed. `jobs_per_s` and `setup_s` are reported at that speed, so a host
/// phase moves neither.
fn nominal_ref_s(spec: Spec) -> f64 {
    hostref::NOMINAL_UNIT_S * spec.ref_units as f64
}

struct Run<'a> {
    args: &'a Args,
    workload: &'a Workload,
    reference: Checked,
    host: HostRef,
    setup_s: f64,
    build_s: f64,
}

type Outcome = (bool, usize, usize, Vec<Metric>);

impl Run<'_> {
    fn units(&self) -> usize {
        self.workload.spec.ref_units
    }

    fn nominal_ref_s(&self) -> f64 {
        nominal_ref_s(self.workload.spec)
    }

    fn measuring(&self, start: Instant, passes: usize, min_passes: usize) -> bool {
        passes < min_passes || start.elapsed().as_secs_f64() < self.args.seconds
    }

    /// The end-to-end run: closed-loop passes through the program, each
    /// next to a host-reference measurement.
    fn timed(&self, min_passes: usize) -> Outcome {
        let (mut walls, mut refs) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed, mut correct) = (0, 0, true);
        let start = Instant::now();
        while self.measuring(start, walls.len(), min_passes) {
            refs.push(self.host.time(self.units(), self.workload.spec.workers));
            let (wall, checked) = self.workload.timed_pass(self.workload.spec.batches);
            walls.push(wall);
            attempted += checked.jobs;
            failed += checked.failed;
            correct &= checked.failed == 0;
        }
        let norm = stats::ratios(&walls, &refs);
        let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let (norm_tail, pct) = tail(&norm);
        let nominal_s: f64 = norm.iter().map(|n| n * self.nominal_ref_s()).sum();
        println!(
            "# passes {} tail p{:.1}; raw batch_ms p50 {:.4} tail {:.4}; raw jobs_per_s {:.4}; \
             host_ref_ms p50 {:.4} min {:.4} max {:.4}",
            walls.len(),
            pct * 100.0,
            median(&ms),
            tail(&ms).0,
            attempted as f64 / walls.iter().sum::<f64>(),
            median(&refs) * 1e3,
            refs.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            refs.iter().copied().fold(0.0, f64::max) * 1e3,
        );
        let metrics = vec![
            ("setup_s", self.setup_s, "s"),
            ("batch_norm_p50", median(&norm), "ratio"),
            ("batch_norm_tail", norm_tail, "ratio"),
            ("jobs_per_s", attempted as f64 / nominal_s, "1/s"),
            ("solution_cycles", self.reference.cycles as f64, "cycles"),
            ("peak_rss_mib", stats::peak_rss_mib(), "MiB"),
        ];
        (correct, attempted, failed, metrics)
    }

    /// The traced run: one traced program batch for the pool figures, then
    /// closed-loop batches through the layer replay, each followed by one
    /// through the program for the wall ratio.
    fn traced(&self, min_passes: usize) -> Outcome {
        let (mut attempted, mut failed, mut correct) = (0, 0, true);
        let (steals, busy_share) = self.workload.pool_pass().unwrap_or((0, 0.0));

        let mut layers = Layers::default();
        let mut lift = LiftCounts::default();
        let (mut verify_s, mut walls, mut refs) = (0.0, Vec::new(), Vec::new());
        let (mut engine_walls, mut engine_refs) = (Vec::new(), Vec::new());
        let threads = self.workload.spec.workers;
        let start = Instant::now();
        while self.measuring(start, walls.len(), min_passes) {
            refs.push(self.host.time(self.units(), threads));
            let (wall, checked) = self.workload.replay_pass(&mut layers, &mut lift);
            verify_s += checked.verify_s;
            walls.push(wall);
            attempted += checked.jobs;
            failed += checked.failed;
            correct &= checked.failed == 0;
            // One program batch after each replay batch, for the wall ratio
            // at the same host speed.
            engine_refs.push(self.host.time(self.units(), threads));
            let (wall, checked) = self.workload.timed_pass(1);
            engine_walls.push(wall);
            attempted += checked.jobs;
            failed += checked.failed;
            correct &= checked.failed == 0;
        }
        let passes = walls.len() as f64;
        let ms = |s: f64| s * 1e3 / passes;
        let count = |n: u64| n as f64 / passes;
        let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
        let l = &layers;
        println!(
            "# replay passes {} replay_ms p50 {:.4} program_ms p50 {:.4}",
            walls.len(),
            median(&walls) * 1e3,
            median(&engine_walls) * 1e3,
        );
        let metrics = vec![
            ("algebra.fingerprint.ms", ms(l.fingerprint_s), "ms"),
            ("libchar.candidates.ms", ms(l.candidates_s), "ms"),
            (
                "libchar.prune_rate",
                share(l.rejected, l.rejected + l.kept),
                "ratio",
            ),
            ("libchar.build.ms", self.build_s * 1e3, "ms"),
            ("algebra.factor.ms", ms(l.factor_s), "ms"),
            ("algebra.horner.ms", ms(l.horner_s), "ms"),
            ("engine.order.ms", ms(l.order_s), "ms"),
            ("engine.relations.ms", ms(l.relations_s), "ms"),
            ("algebra.cache.hit.ms", ms(l.cache_hit_s), "ms"),
            ("algebra.cache.alpha_hit.ms", ms(l.cache_alpha_hit_s), "ms"),
            (
                "algebra.cache.hit_rate",
                share(l.cache_hits, l.basis_calls),
                "ratio",
            ),
            (
                "algebra.cache.alpha_hit_rate",
                share(l.alpha_hits, l.basis_calls),
                "ratio",
            ),
            ("algebra.groebner.ms", ms(l.groebner_s), "ms"),
            ("algebra.groebner.computes", count(l.computes), "count"),
            (
                "algebra.groebner.reductions",
                count(lift.reductions),
                "count",
            ),
            ("algebra.lift.success", count(lift.success), "count"),
            ("algebra.lift.fallback", count(lift.fallback), "count"),
            ("algebra.lift.bypass", count(lift.bypass), "count"),
            ("algebra.reduce.ms", ms(l.reduce_s), "ms"),
            ("algebra.reduce.calls", count(l.reduce_calls), "count"),
            ("engine.cost.ms", ms(l.cost_s), "ms"),
            ("engine.mapper_new.ms", ms(l.mapper_new_s), "ms"),
            ("engine.verify.ms", ms(verify_s), "ms"),
            ("engine.nodes", count(l.nodes), "count"),
            ("engine.prunes", count(l.prunes), "count"),
            ("engine.pool.steals", steals as f64, "count"),
            ("engine.pool.busy_share", busy_share, "ratio"),
            ("core.identify.ms", ms(l.identify_s), "ms"),
            ("core.map.ms", ms(l.core_map_s), "ms"),
            ("mp3.decode.ms", ms(l.decode_s), "ms"),
            ("platform.profile.ms", ms(l.profile_s), "ms"),
            ("mp3.compliance.ms", ms(l.compliance_s), "ms"),
            (
                "core.table6_factor",
                self.reference.table6_factor.unwrap_or(0.0),
                "x",
            ),
            (
                "replay.attributed_share",
                l.attributed_s() / walls.iter().sum::<f64>(),
                "ratio",
            ),
            (
                "replay.wall_ratio",
                median(&stats::ratios(&walls, &refs))
                    / median(&stats::ratios(&engine_walls, &engine_refs)),
                "ratio",
            ),
            ("replay.pass.ms", median(&walls) * 1e3, "ms"),
            ("engine.batch.ms", median(&engine_walls) * 1e3, "ms"),
            ("host.ref.ms", median(&refs) * 1e3, "ms"),
            (
                "error_share",
                share(failed as u64, attempted as u64),
                "ratio",
            ),
        ];
        (correct, attempted, failed, metrics)
    }
}
