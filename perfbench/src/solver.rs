//! The solver workloads (`pack-sparse`, `sweep-planted`): a warm
//! `minimum_cut_with` loop with a dynamic-update stream beside it, and the
//! traced replay of the same solve through the public pipeline stages.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pmc_core::gen_ops::{gen_ancestor, gen_incomparable};
use pmc_core::phases::build_phases;
use pmc_core::{
    minimum_cut_with, resolve_delta, two_respect_mincut_reusing, MinCutConfig, MinCutResult,
    MutationOp, SolveState, SolverWorkspace, TreeArena,
};
use pmc_graph::{connected_components, mincut_certificate_with, Graph};
use pmc_minpath::{run_tree_batch_with, TreeBatchScratch};
use pmc_packing::{pack_trees_with, RootScratch};

use crate::inputs::{update_edge, SolverInput};
use crate::stats::{backed_tail, median, quantile};
use crate::trace::Trace;
use crate::{Metric, Outcome};

/// Thread width of every solve (the fan-out of the per-tree loop).
pub const THREADS: usize = 2;
/// Cold set-ups (generate + first solve) per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Dynamic updates per warm solve. Enough that a run holds over a thousand
/// operations, so its all-operation p99 has at least ten samples beyond it.
const UPDATES_PER_SOLVE: u64 = 9;
/// Edge-weight increases per update, resolved together (one update request
/// of a few ops, as a service client would send).
const OPS_PER_UPDATE: u64 = 8;
/// Re-pack budget of the pinned state, as a share of the graph's weight. A
/// run adds less than this, so it never re-packs: at the default 0.25 a
/// long run would re-pack once or twice, and those multi-second samples
/// would make the update stream depend on how many solves the run made.
const STALENESS: f64 = 1.0;

fn config() -> MinCutConfig {
    MinCutConfig {
        threads: Some(THREADS),
        ..MinCutConfig::default()
    }
}

/// Checks a solve against the oracle: the known value, witnessed by its side.
fn correct(g: &Graph, r: &MinCutResult, want: u64) -> bool {
    r.value == want && g.is_proper_cut(&r.side) && g.cut_value(&r.side) == want
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The timed run: set up `SETUP_REPS` times, run warm solves until
/// `seconds` have passed, read the peak RSS, then pin a dynamic
/// `SolveState` and make `UPDATES_PER_SOLVE` updates per solve made, each
/// raising `OPS_PER_UPDATE` edge weights by 1. The state is pinned after
/// the RSS reading, so that the metric stays the solve path's; pinning
/// itself is not timed.
pub fn run(make: fn(u64) -> SolverInput, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cfg = config();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let fresh = make(seed);
        let r = minimum_cut_with(&fresh.graph, &cfg, &mut SolverWorkspace::new());
        setups.push(t.elapsed().as_secs_f64());
        check(r.is_ok_and(|r| correct(&fresh.graph, &r, fresh.min_cut)));
        input = Some(fresh);
    }
    let input = input.expect("at least one set-up");
    let g = &input.graph;

    let mut ws = SolverWorkspace::new();
    // One untimed warm-up, so the workspace holds its steady-state buffers.
    let _ = minimum_cut_with(g, &cfg, &mut ws);
    let mut solves = Vec::new();
    let start = Instant::now();
    while solves.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = minimum_cut_with(g, &cfg, &mut ws);
        solves.push(ms(t.elapsed()));
        check(r.is_ok_and(|r| correct(g, &r, input.min_cut)));
    }
    let rss = crate::serve::peak_rss_mb("self")?;

    let mut dyn_ws = SolverWorkspace::new();
    let mut dyn_g = g.clone();
    let mut state = SolveState::fresh(&dyn_g, cfg.seed, STALENESS, &mut dyn_ws, cfg.threads)
        .map_err(|e| format!("pinning the dynamic state: {e}"))?;
    let mut updates = Vec::new();
    let mut ops = Vec::with_capacity(OPS_PER_UPDATE as usize);
    for k in 0..solves.len() as u64 * UPDATES_PER_SOLVE {
        ops.clear();
        for j in 0..OPS_PER_UPDATE {
            let eid = update_edge(&input, seed, k * OPS_PER_UPDATE + j);
            let w = dyn_g.edges()[eid as usize].w + 1;
            ops.push(MutationOp::Reweight { eid, w });
        }
        let t = Instant::now();
        let r = resolve_delta(&mut dyn_g, &mut state, &ops, &mut dyn_ws, cfg.threads);
        updates.push(ms(t.elapsed()));
        check(r.is_ok() && correct(&dyn_g, state.best(), input.min_cut));
    }

    let mut all = solves.clone();
    all.extend_from_slice(&updates);
    let busy_s: f64 = all.iter().sum::<f64>() / 1e3;
    Ok(Outcome {
        attempted,
        failed,
        wrong: failed,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("latency_ms_p50", quantile(&solves, 0.5), "ms"),
            Metric::new("latency_ms_p90", quantile(&solves, 0.9), "ms"),
            Metric::new("latency_ms_p99", quantile(&all, 0.99), "ms"),
            Metric::new("solve_ms_p50", quantile(&solves, 0.5), "ms"),
            Metric::new("update_ms_p50", quantile(&updates, 0.5), "ms"),
            Metric::new("throughput_rps", all.len() as f64 / busy_s, "1/s"),
            Metric::new("peak_rss_mb", rss, "MB"),
        ],
        samples: vec![
            ("solves", solves.len() as u64),
            ("updates", updates.len() as u64),
        ],
        context: vec![
            ("n", g.n().to_string()),
            ("m", g.m().to_string()),
            ("min_cut", input.min_cut.to_string()),
            ("solves_backed_tail", backed_tail(solves.len() as u64)),
            ("all_ops_backed_tail", backed_tail(all.len() as u64)),
        ],
    })
}

/// Per-iteration layer numbers of the traced replay, keyed by metric name.
type Layers = BTreeMap<&'static str, Vec<f64>>;

/// The traced run over `inputs`, taken in turn: each iteration times one
/// real `minimum_cut_with`, replays the same solve through the public
/// stages in pipeline order with a span around each call, then re-runs
/// every tree's two-respect search split into its `pmc-minpath` stages.
/// Returns the medians of the layer metrics plus `trace.coverage` (the
/// summed top-level replay spans over the summed wall time of the real
/// solves), and `(attempted, wrong)` over both solves of every iteration.
pub fn traced(
    inputs: &[SolverInput],
    threads: usize,
    seconds: f64,
    trace: &mut Trace,
) -> (Vec<Metric>, u64, u64) {
    let cfg = MinCutConfig {
        threads: Some(threads),
        ..MinCutConfig::default()
    };
    let mut ws = SolverWorkspace::new();
    let mut replay_ws = SolverWorkspace::new();
    let mut minpath_ws = TreeBatchScratch::default();
    let mut root_ws = RootScratch::new();
    // Warm both workspaces once, untimed.
    let _ = minimum_cut_with(&inputs[0].graph, &cfg, &mut ws);
    let _ = replay(
        &inputs[0].graph,
        &cfg,
        &mut replay_ws,
        &mut Trace::default(),
        &mut Layers::new(),
    );

    let mut layers = Layers::new();
    let (mut real_wall, mut spans_wall) = (0.0, 0.0);
    let (mut attempted, mut wrong) = (0u64, 0u64);
    let start = Instant::now();
    for input in inputs.iter().cycle() {
        if attempted >= 2 * inputs.len() as u64 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let g = &input.graph;
        let t = Instant::now();
        let real = minimum_cut_with(g, &cfg, &mut ws);
        real_wall += ms(trace.record_since("solve.real", None, t));

        let rep = replay(g, &cfg, &mut replay_ws, trace, &mut layers);
        for r in [real.ok(), rep.result] {
            attempted += 1;
            wrong += u64::from(!r.is_some_and(|r| correct(g, &r, input.min_cut)));
        }
        spans_wall += rep.top_ms;

        let work = match &replay_ws.cert_graph {
            Some(c) if rep.certificate => c,
            _ => g,
        };
        minpath_split(
            work,
            &rep.trees,
            &mut root_ws,
            &mut minpath_ws,
            trace,
            &mut layers,
        );
    }

    let mut metrics: Vec<Metric> = layers
        .iter()
        .map(|(&name, v)| Metric::new(name, median(v), unit_of(name)))
        .collect();
    metrics.push(Metric::new(
        "trace.coverage",
        spans_wall / real_wall,
        "ratio",
    ));
    (metrics, attempted, wrong)
}

/// Unit of a solver-replay layer metric, read off its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("utilization") || name.ends_with("skeleton_p") {
        "ratio"
    } else {
        "count"
    }
}

/// One solve replayed through the public stages, in `minimum_cut_with`
/// order: connectivity, NI certificate, packing, the per-tree loop through
/// `fanout_units` (rooting + two-respect search per tree), reduction and
/// witness verification. Returns the result, the summed top-level span
/// time in ms, and the packed trees plus whether the certificate applied.
fn replay(
    g: &Graph,
    cfg: &MinCutConfig,
    ws: &mut SolverWorkspace,
    trace: &mut Trace,
    layers: &mut Layers,
) -> Replayed {
    let root = trace.open("solve.replay");
    let mut top = 0.0;
    let mut stage = |trace: &mut Trace, layers: &mut Layers, name: &'static str, t: Instant| {
        let d = ms(trace.record_since(name, Some(root), t));
        layers.entry(name).or_default().push(d);
        top += d;
    };

    let t = Instant::now();
    let (_, ncomp) = connected_components(g);
    stage(trace, layers, "graph.components_ms", t);
    assert_eq!(ncomp, 1, "solver workloads are connected");

    let t = Instant::now();
    let cert_graph = ws
        .cert_graph
        .get_or_insert_with(|| Graph::from_edges(1, &[]).expect("placeholder graph"));
    let use_cert =
        cfg.use_certificate && mincut_certificate_with(g, &mut ws.cert, cert_graph).is_some();
    stage(trace, layers, "graph.certificate_ms", t);
    let SolverWorkspace {
        cert_graph,
        packing: pack_ws,
        trees: tree_ws,
        ..
    } = ws;
    let work: &Graph = if use_cert {
        cert_graph.as_ref().expect("certificate built")
    } else {
        g
    };

    let t = Instant::now();
    let mut pcfg = cfg.packing.clone();
    pcfg.seed = pcfg.seed.wrapping_add(cfg.seed);
    let packing = pack_trees_with(work, &pcfg, pack_ws);
    stage(trace, layers, "packing.pack_ms", t);

    let ntrees = packing.trees.len();
    let workers = if ntrees < 2 || work.m() < pmc_core::PAR_TREES_MIN_EDGES {
        1
    } else {
        cfg.threads.unwrap_or(1).clamp(1, ntrees)
    };
    if tree_ws.len() < workers {
        tree_ws.resize_with(workers, TreeArena::default);
    }
    let t = Instant::now();
    let outcomes = pmc_par::fanout_units(&mut tree_ws[..workers], ntrees, |arena, i| {
        let TreeArena { root, batch } = arena;
        let t0 = Instant::now();
        root.rebuild(work, &packing.trees[i], 0);
        let t1 = Instant::now();
        let cut = two_respect_mincut_reusing(work, root.tree(), batch);
        (cut, t0, t1, Instant::now())
    });
    let fan_wall = t.elapsed();
    let fan = trace.record("par.fanout_wall_ms", Some(root), t, t + fan_wall);
    let (mut root_ms, mut sweep_ms, mut ops) = (0.0, 0.0, 0u64);
    for (cut, t0, t1, t2) in &outcomes {
        trace.record("packing.root_ms", Some(fan), *t0, *t1);
        trace.record("core.two_respect_ms", Some(fan), *t1, *t2);
        root_ms += ms(*t1 - *t0);
        sweep_ms += ms(*t2 - *t1);
        ops += cut.batch_ops;
    }

    let t = Instant::now();
    let (ti, best) = outcomes
        .into_iter()
        .map(|o| o.0)
        .enumerate()
        .min_by_key(|(i, c)| (c.value, *i))
        .expect("packing returned trees");
    let value = best.value as u64;
    let verified = g.is_proper_cut(&best.side) && g.cut_value(&best.side) == value;
    stage(trace, layers, "core.verify_ms", t);
    trace.close(root);
    top += ms(fan_wall);

    let busy = root_ms + sweep_ms;
    for (name, v) in [
        ("par.fanout_wall_ms", ms(fan_wall)),
        ("par.fanout_busy_ms", busy),
        (
            "par.fanout_utilization",
            busy / (ms(fan_wall) * workers as f64),
        ),
        ("packing.root_ms", root_ms),
        ("core.two_respect_ms", sweep_ms),
        ("core.batch_ops", ops as f64),
        ("graph.certificate_kept_m", work.m() as f64),
        ("packing.rounds", packing.rounds as f64),
        ("packing.distinct_trees", packing.distinct_trees as f64),
        ("packing.trees_examined", ntrees as f64),
        ("packing.skeleton_p", packing.skeleton_p),
    ] {
        layers.entry(name).or_default().push(v);
    }

    Replayed {
        result: verified.then_some(MinCutResult {
            value,
            side: best.side,
            algorithm: "paper",
            kind: Some(best.kind),
            tree_index: Some(ti),
        }),
        top_ms: top,
        trees: packing.trees,
        certificate: use_cert,
    }
}

/// What one replayed solve produced.
struct Replayed {
    /// The result, `None` when its witness failed verification.
    result: Option<MinCutResult>,
    /// Summed duration of the top-level stage spans, in ms.
    top_ms: f64,
    /// The packed trees the per-tree loop searched.
    trees: pmc_packing::PackedTreeList,
    /// Whether the trees index the certificate graph rather than the input.
    certificate: bool,
}

/// Re-runs every packed tree's two-respect search split into its
/// `pmc-minpath` stages: bough phases (`build_phases`), batch generation
/// (`gen_incomparable` + `gen_ancestor`) and the batched sweep
/// (`run_tree_batch_with`). Sequential; outside the coverage sum.
fn minpath_split(
    work: &Graph,
    trees: &pmc_packing::PackedTreeList,
    root_ws: &mut RootScratch,
    ws: &mut TreeBatchScratch,
    trace: &mut Trace,
    layers: &mut Layers,
) {
    let root = trace.open("minpath.split");
    let (mut phases_ms, mut gen_ms, mut sweep_ms) = (0.0, 0.0, 0.0);
    for tree_edges in trees {
        let tree = root_ws.rebuild(work, tree_edges, 0);
        let t = Instant::now();
        let phases = build_phases(work, tree);
        phases_ms += ms(trace.record_since("minpath.phases_ms", Some(root), t));
        // Generate every phase's batches, then run them: the order the
        // amortized two-respect search uses.
        let t = Instant::now();
        let batches: Vec<_> = phases
            .iter()
            .map(|p| [gen_incomparable(p), gen_ancestor(p)])
            .collect();
        gen_ms += ms(trace.record_since("minpath.gen_ms", Some(root), t));
        let t = Instant::now();
        for (p, pair) in phases.iter().zip(&batches) {
            for b in pair.iter().filter(|b| !b.ops.is_empty()) {
                let out = run_tree_batch_with(&p.tree, &p.decomp, &b.init, &b.ops, ws);
                assert_eq!(out.len(), b.metas.len());
            }
        }
        sweep_ms += ms(trace.record_since("minpath.sweep_ms", Some(root), t));
    }
    trace.close(root);
    for (name, v) in [
        ("minpath.phases_ms", phases_ms),
        ("minpath.gen_ms", gen_ms),
        ("minpath.sweep_ms", sweep_ms),
    ] {
        layers.entry(name).or_default().push(v);
    }
}
