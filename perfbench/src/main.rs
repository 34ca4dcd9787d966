//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <pack-sparse|sweep-planted|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --pmc <path to the pmc binary>
//!           --out <scratch dir>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics for `--seconds`;
//! with `--trace 1` it makes the separate traced run and reports the
//! per-layer metrics, writing them and the raw spans under `--out`. Either
//! way the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the run's context. Exits non-zero if any answer was wrong.

mod inputs;
mod serve;
mod solver;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use trace::Trace;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    /// Operations that failed in any way (wrong, refused, timed out).
    pub failed: u64,
    /// Operations whose answer was wrong: any makes the run fail.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts behind the reported percentiles.
    pub samples: Vec<(&'static str, u64)>,
    /// Workload facts for the context line (graph size and the like).
    pub context: Vec<(&'static str, String)>,
}

const WORKLOADS: [&str; 3] = ["pack-sparse", "sweep-planted", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pmc: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pmc: need("--pmc")?.into(),
        out: need("--out")?.into(),
    })
}

/// Formats a float as JSON (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run's context: everything needed to compare it with another run.
fn context_json(args: &Args, outcome: &Outcome) -> String {
    let mut fields = vec![
        ("workload", quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", args.trace.to_string()),
        (
            "hardware_threads",
            pmc_bench::loadgen::hardware_threads().to_string(),
        ),
        ("thread_width", solver::THREADS.to_string()),
        ("commit", quote(&commit())),
    ];
    fields.extend(outcome.context.iter().map(|(k, v)| (*k, quote(v))));
    fields.extend(outcome.samples.iter().map(|(k, v)| (*k, v.to_string())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", quote(k)))
        .collect();
    format!("{{\"context\":{{{}}}}}", body.join(","))
}

/// The commit the benchmark was built from: `git rev-parse HEAD` when the
/// working directory is a git checkout, else `unknown`. Git is not asked
/// otherwise, so it never searches directories above the checkout.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The metrics as one JSON object: `{"name":{"value":…,"unit":…},…}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let (name, value, unit) = (quote(&m.name), num(m.value), quote(m.unit));
            format!("{name}:{{\"value\":{value},\"unit\":{unit}}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn result_json(outcome: &Outcome) -> String {
    let correct = outcome.wrong == 0 && outcome.attempted > 0;
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let make = match args.workload.as_str() {
        "pack-sparse" => inputs::pack_sparse,
        "sweep-planted" => inputs::sweep_planted,
        _ if args.trace => return traced_serve(args),
        _ => return serve::run(&args.pmc, args.seed, args.seconds, &args.out),
    };
    if args.trace {
        traced_solver(args, &make(args.seed))
    } else {
        solver::run(make, args.seed, args.seconds)
    }
}

/// A solver workload's traced run: the solver stages for `--seconds`
/// (failing unless `trace.coverage` is within 0.9–1.1), then the service
/// and transport replays of a session on the same graph.
fn traced_solver(args: &Args, input: &inputs::SolverInput) -> Result<Outcome, String> {
    let mut trace = Trace::default();
    let (mut metrics, attempted, wrong) = solver::traced(
        std::slice::from_ref(input),
        solver::THREADS,
        args.seconds,
        &mut trace,
    );
    let coverage = metrics
        .iter()
        .find(|m| m.name == "trace.coverage")
        .map(|m| m.value);
    if !coverage.is_some_and(|c| (0.9..=1.1).contains(&c)) {
        return Err(format!("trace.coverage {coverage:?} is outside 0.9..=1.1"));
    }
    let service = serve::traced_solver_frames(&args.pmc, input, args.seed, &args.out, &mut trace)?;
    metrics.extend(service.metrics);
    write_trace(args, &metrics, &trace)?;
    Ok(Outcome {
        attempted: attempted + service.attempted,
        failed: wrong + service.failed,
        wrong: wrong + service.wrong,
        metrics,
        samples: Vec::new(),
        context: vec![
            ("n", input.graph.n().to_string()),
            ("m", input.graph.m().to_string()),
        ],
    })
}

/// The `serve-mixed` traced run: the service and transport replays, then
/// the solver stages over every graph the session solved with the paper
/// solver, at the service's per-solve width of one thread.
fn traced_serve(args: &Args) -> Result<Outcome, String> {
    let mut trace = Trace::default();
    let (mut outcome, graphs) = serve::traced(&args.pmc, args.seed, &args.out, &mut trace)?;
    let (layers, attempted, wrong) = solver::traced(&graphs, 1, 0.0, &mut trace);
    outcome.metrics.extend(layers);
    outcome.attempted += attempted;
    outcome.failed += wrong;
    outcome.wrong += wrong;
    outcome.context = vec![("solver_graphs", graphs.len().to_string())];
    write_trace(args, &outcome.metrics, &trace)?;
    Ok(outcome)
}

/// Writes the per-layer metrics and the raw spans of a traced run under
/// `--out`.
fn write_trace(args: &Args, metrics: &[Metric], trace: &Trace) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let stem = format!("trace-{}-{}", args.workload, args.seed);
    let write = |name: String, body: String| {
        let path = args.out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), metrics_json(metrics) + "\n")?;
    write(format!("{stem}.spans.jsonl"), trace.to_json_lines())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        let ok = outcome.attempted.saturating_sub(outcome.failed);
        let rate = ok as f64 / outcome.attempted.max(1) as f64;
        outcome
            .metrics
            .push(Metric::new("success_rate", rate, "ratio"));
    }
    println!("{}", context_json(&args, &outcome));
    println!("{}", result_json(&outcome));
    if outcome.wrong > 0 {
        eprintln!(
            "perfbench: {} of {} answers were wrong",
            outcome.wrong, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
