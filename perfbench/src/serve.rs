//! The service side: the `serve-mixed` workload (a `pmc serve` child driven
//! by the `pmc-bench` loadgen in closed loop), and the service/transport
//! layer replays every traced run makes.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pmc_baseline::stoer_wagner;
use pmc_bench::histogram::LatencyHistogram;
use pmc_bench::loadgen::{self, ArrivalMode, LoadgenConfig};
use pmc_bench::workload::{connection_script, Verb, WorkloadSpec};
use pmc_graph::{io as gio, Graph};
use pmc_service::journal::FsyncPolicy;
use pmc_service::protocol::{graph_id, LoadSource, Request, Response, StatsSnapshot, UpdateOp};
use pmc_service::{Service, ServiceConfig};

use crate::inputs::{splitmix, update_edge, SolverInput};
use crate::stats::{backed_tail, hist_ms, median};
use crate::trace::Trace;
use crate::{Metric, Outcome};

/// Service fan-out width (`pmc serve --threads`).
const SERVE_THREADS: usize = 2;
/// Load connections; with `SERVE_THREADS` server workers this keeps the
/// client and the server within the machine's two hardware threads.
const CONNECTIONS: usize = 2;
/// Graphs each connection owns.
const GRAPHS_PER_CONN: usize = 4;
/// Mixed requests per connection in one loadgen round (a few tenths of a
/// second of traffic); rounds repeat with fresh derived seeds until time is
/// up.
const REQUESTS_PER_CONN: usize = 300;
/// Vertices of the smallest scripted cycle; each (connection, slot) pair
/// owns the next size up.
const BASE_N: usize = 12;
/// Server start-ups per run; `setup_s` is their median. Each takes a few
/// milliseconds, so many are cheap and steady the median.
const SETUP_REPS: usize = 11;

/// The loadgen workload of round `round` of a run seeded `seed`.
fn spec(seed: u64, round: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed: splitmix(seed ^ splitmix(round)),
        graphs_per_conn: GRAPHS_PER_CONN,
        requests_per_conn: REQUESTS_PER_CONN,
        base_n: BASE_N,
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (or `"self"`), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or(format!("no VmHWM in {path}"))
}

/// A `pmc serve --listen` child with a private journal.
struct Server {
    child: Child,
    addr: String,
    journal: PathBuf,
    /// Drains the child's stdout; ends when the child exits.
    drain: Option<JoinHandle<io::Result<u64>>>,
}

impl Server {
    /// Starts `pmc serve --listen 127.0.0.1:0 --threads 2 --journal <dir>/…
    /// --fsync never` and waits for its `listening:` line.
    fn start(pmc: &Path, dir: &Path, tag: &str) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let journal = dir.join(format!("journal-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let mut child = Command::new(pmc)
            .args(["serve", "--listen", "127.0.0.1:0", "--threads"])
            .arg(SERVE_THREADS.to_string())
            .arg("--journal")
            .arg(&journal)
            .args(["--fsync", "never"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", pmc.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = out.read_line(&mut line);
        // Keep draining so the child never blocks on a full pipe.
        let drain = std::thread::spawn(move || io::copy(&mut out, &mut io::sink()));
        let server = Server {
            addr: line
                .trim()
                .strip_prefix("listening: ")
                .unwrap_or_default()
                .to_string(),
            child,
            journal,
            drain: Some(drain),
        };
        if server.addr.is_empty() {
            return Err(format!(
                "pmc serve printed {line:?}, not a listening address"
            ));
        }
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.call(&Request::Shutdown.to_frame());
        }
        self.child
            .wait()
            .map_err(|e| format!("waiting for pmc serve: {e}"))?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// One closed-loop connection: write a frame, wait for its response.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Sends one frame; returns the parsed response and the round trip.
    fn call(&mut self, frame: &str) -> Result<(Response, Duration), String> {
        let t = Instant::now();
        let io = |e: io::Error| format!("connection: {e}");
        self.writer.write_all(frame.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        self.writer.flush().map_err(io)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line).map_err(io)? == 0 {
            return Err("server closed the connection".into());
        }
        let rtt = t.elapsed();
        let resp = Response::parse_frame(self.line.trim_end())
            .map_err(|e| format!("unparsable response: {e:?}"))?;
        Ok((resp, rtt))
    }
}

/// The graphs a set of scripted frames leaves behind, keyed by content id:
/// every loaded body, with every update replayed onto it.
#[derive(Default)]
struct Replica {
    graphs: BTreeMap<String, Graph>,
}

impl Replica {
    /// The graphs every connection of `spec` leaves behind.
    fn of(spec: &WorkloadSpec) -> Replica {
        let mut replica = Replica::default();
        for c in 0..CONNECTIONS {
            for step in connection_script(spec, c).steps {
                replica.apply(&step.frame);
            }
        }
        replica
    }

    /// Applies one request frame to the replica.
    fn apply(&mut self, frame: &str) {
        match Request::parse_frame(frame) {
            Ok(Request::Load(LoadSource::Body(body))) => {
                let g = gio::read_dimacs(body.as_bytes()).expect("scripted bodies parse");
                self.graphs.insert(graph_id(&g), g);
            }
            Ok(Request::Update { graph, ops, .. }) => {
                let mut g = self
                    .graphs
                    .remove(&graph)
                    .expect("scripts update loaded graphs");
                for op in ops {
                    apply_op(&mut g, &op);
                }
                self.graphs.insert(graph_id(&g), g);
            }
            _ => {}
        }
    }
}

/// Applies a wire update op the way the service does: 1-based vertices,
/// `(u, v)` addressing the smallest edge id between the pair.
fn apply_op(g: &mut Graph, op: &UpdateOp) {
    let find = |g: &Graph, u: u64, v: u64| {
        g.find_edge((u - 1) as u32, (v - 1) as u32)
            .expect("scripted ops address live edges") as usize
    };
    match *op {
        UpdateOp::AddEdge { u, v, w } => {
            g.add_edge((u - 1) as u32, (v - 1) as u32, w)
                .expect("valid add");
        }
        UpdateOp::RemoveEdge { u, v } => {
            let e = find(g, u, v);
            g.remove_edge(e).expect("valid remove");
        }
        UpdateOp::ReweightEdge { u, v, w } => {
            let e = find(g, u, v);
            g.reweight_edge(e, w).expect("valid reweight");
        }
    }
}

/// Solves every graph the replica holds over `client`, with both the paper
/// solver and Stoer–Wagner, and checks each value against an in-process
/// Stoer–Wagner. Returns `(attempted, failed, wrong)`: a refused solve
/// fails, a solve answering another value is wrong.
fn check_values(client: &mut Client, replica: &Replica) -> Result<[u64; 3], String> {
    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    for (id, g) in &replica.graphs {
        let want = stoer_wagner(g).map_err(|e| e.to_string())?.value;
        for solver in ["paper", "sw"] {
            let frame = Request::Solve {
                graphs: vec![id.clone()],
                solver: solver.into(),
                seed: 7,
                deadline_ms: None,
            }
            .to_frame();
            attempted += 1;
            match client.call(&frame)?.0 {
                Response::Solved { results } if results.len() == 1 => {
                    if results[0].value != want {
                        failed += 1;
                        wrong += 1;
                        let got = results[0].value;
                        eprintln!("perfbench: {solver} on {id}: expected {want}, got {got}");
                    }
                }
                other => {
                    failed += 1;
                    eprintln!("perfbench: {solver} on {id} refused: {}", other.to_frame());
                }
            }
        }
    }
    Ok([attempted, failed, wrong])
}

/// The initial loads of a round: each connection's first `GRAPHS_PER_CONN`
/// frames.
fn initial_loads(spec: &WorkloadSpec) -> Vec<String> {
    (0..CONNECTIONS)
        .flat_map(|c| {
            connection_script(spec, c)
                .steps
                .into_iter()
                .take(GRAPHS_PER_CONN)
        })
        .map(|s| s.frame)
        .collect()
}

/// Starts a server and sends it `loads`; returns the server and the set-up
/// time in seconds.
fn set_up(pmc: &Path, dir: &Path, loads: &[String], tag: &str) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(pmc, dir, tag)?;
    let mut client = Client::connect(&server.addr).map_err(|e| format!("connecting: {e}"))?;
    for frame in loads {
        if !matches!(client.call(frame)?.0, Response::Loaded { .. }) {
            return Err("initial load was refused".into());
        }
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// The `serve-mixed` timed run.
pub fn run(pmc: &Path, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    let loads = initial_loads(&spec(seed, 0));
    for rep in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::stop(s)?;
        }
        let (s, secs) = set_up(pmc, dir, &loads, &rep.to_string())?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let mut checker = Client::connect(&server.addr).map_err(|e| format!("connecting: {e}"))?;

    let mut verbs: [LatencyHistogram; 4] = Default::default();
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let mut busy = Duration::ZERO;
    let mut round = 0;
    while round == 0 || busy.as_secs_f64() < seconds {
        let cfg = LoadgenConfig {
            addr: server.addr.clone(),
            connections: CONNECTIONS,
            spec: spec(seed, round),
            mode: ArrivalMode::Closed,
            strict_residency: false,
        };
        let report = loadgen::run(&cfg).map_err(|e| format!("loadgen: {e}"))?;
        busy += report.elapsed;
        for (all, v) in verbs.iter_mut().zip(&report.verbs) {
            all.merge(v);
        }
        attempted += report.total_requests();
        failed += report.protocol_errors + report.overloaded + report.timed_out + report.mismatches;
        if let Some(issue) = &report.first_issue {
            eprintln!("perfbench: loadgen round {round}: {issue}");
        }

        // The loadgen checks ids and shapes; check the cut values too.
        let replica = Replica::of(&cfg.spec);
        let [a, f, w] = check_values(&mut checker, &replica)?;
        attempted += a;
        failed += f;
        wrong += w;
        round += 1;
    }
    let rss = peak_rss_mb(&server.pid())?;
    drop(checker);
    server.stop()?;

    let mut all = LatencyHistogram::new();
    verbs.iter().for_each(|v| all.merge(v));
    let solve = &verbs[Verb::Solve.index()];
    let update = &verbs[Verb::Update.index()];
    Ok(Outcome {
        attempted,
        failed,
        wrong,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("latency_ms_p50", hist_ms(solve, 0.5), "ms"),
            Metric::new("latency_ms_p90", hist_ms(solve, 0.9), "ms"),
            Metric::new("latency_ms_p99", hist_ms(&all, 0.99), "ms"),
            Metric::new("solve_ms_p50", hist_ms(solve, 0.5), "ms"),
            Metric::new("update_ms_p50", hist_ms(update, 0.5), "ms"),
            Metric::new(
                "throughput_rps",
                all.count() as f64 / busy.as_secs_f64(),
                "1/s",
            ),
            Metric::new("peak_rss_mb", rss, "MB"),
        ],
        samples: Verb::ALL
            .iter()
            .map(|v| (v.as_str(), verbs[v.index()].count()))
            .chain([("rounds", round)])
            .collect(),
        context: vec![
            ("connections", CONNECTIONS.to_string()),
            ("graphs_per_conn", GRAPHS_PER_CONN.to_string()),
            ("requests_per_conn_per_round", REQUESTS_PER_CONN.to_string()),
            ("serve_threads", SERVE_THREADS.to_string()),
            (
                "graph_n",
                format!(
                    "{}..={}",
                    BASE_N,
                    BASE_N + CONNECTIONS * GRAPHS_PER_CONN - 1
                ),
            ),
            ("solves_backed_tail", backed_tail(solve.count())),
            ("updates_backed_tail", backed_tail(update.count())),
            ("all_ops_backed_tail", backed_tail(all.count())),
        ],
    })
}

/// Service-layer costs of one scripted session replayed in process, on a
/// fresh `Service` configured like the `pmc serve` child: per-request
/// decode (`Request::parse_frame`), dispatch (`Service::handle`) and encode
/// (`Response::to_frame`) times in µs, plus every response.
struct InProcess {
    decode: Vec<f64>,
    encode: Vec<f64>,
    /// Dispatch times by verb, indexed like [`Verb::ALL`].
    handle: [Vec<f64>; 4],
    /// decode + handle + encode per request.
    total: Vec<f64>,
    responses: Vec<Response>,
}

fn replay_in_process(
    frames: &[String],
    dir: &Path,
    trace: &mut Trace,
) -> Result<InProcess, String> {
    let journal = dir.join(format!("journal-{}-inproc.log", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let svc = Service::open(&ServiceConfig {
        threads: SERVE_THREADS,
        journal: Some(journal.clone()),
        fsync: FsyncPolicy::Never,
        ..ServiceConfig::default()
    })?;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut out = InProcess {
        decode: Vec::new(),
        encode: Vec::new(),
        handle: Default::default(),
        total: Vec::new(),
        responses: Vec::new(),
    };
    for frame in frames {
        let root = trace.open("service.request");
        let t = Instant::now();
        let req = Request::parse_frame(frame).map_err(|e| format!("scripted frame: {e:?}"))?;
        let decode = us(trace.record_since("service.decode_us", Some(root), t));
        let verb = match req {
            Request::Load(_) => Verb::Load,
            Request::Solve { .. } => Verb::Solve,
            Request::Update { .. } => Verb::Update,
            _ => Verb::Stats,
        };
        let t = Instant::now();
        let (resp, _) = svc.handle(&req);
        let handle = us(trace.record_since("service.handle_us", Some(root), t));
        let t = Instant::now();
        let wire = resp.to_frame();
        let encode = us(trace.record_since("service.encode_us", Some(root), t));
        trace.close(root);
        assert!(!wire.is_empty());
        out.decode.push(decode);
        out.encode.push(encode);
        out.handle[verb.index()].push(handle);
        out.total.push(decode + handle + encode);
        out.responses.push(resp);
    }
    drop(svc);
    let _ = std::fs::remove_file(&journal);
    Ok(out)
}

/// The layer metrics shared by every traced run's service replay.
///
/// `transport.overhead_us_p50` pairs each request of a sequential session
/// over TCP (`rtt_us`, in frame order) with the same request served in
/// process, and takes the median of `round trip − (decode + handle +
/// encode)`.
fn service_metrics(
    inproc: &InProcess,
    rtt_p50: [f64; 4],
    rtt_us: &[f64],
    stats: &StatsSnapshot,
) -> Vec<Metric> {
    let overhead: Vec<f64> = rtt_us
        .iter()
        .zip(&inproc.total)
        .map(|(r, c)| r - c)
        .collect();
    let mut m = vec![
        Metric::new("service.decode_us", median(&inproc.decode), "us"),
        Metric::new("service.encode_us", median(&inproc.encode), "us"),
        Metric::new("transport.overhead_us_p50", median(&overhead), "us"),
    ];
    for verb in [Verb::Load, Verb::Solve, Verb::Update] {
        let name = format!("service.handle_us.{}", verb.as_str());
        m.push(Metric::new(
            &name,
            median(&inproc.handle[verb.index()]),
            "us",
        ));
    }
    for (verb, v) in Verb::ALL.iter().zip(rtt_p50) {
        let name = format!("transport.rtt_us_p50.{}", verb.as_str());
        m.push(Metric::new(&name, v, "us"));
    }
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    m.extend([
        Metric::new(
            "cache.snapshot_hit_rate",
            ratio(stats.cache.snapshot_hits, stats.cache.snapshot_misses),
            "ratio",
        ),
        Metric::new(
            "dynamic.incremental_share",
            ratio(stats.dynamic.incremental, stats.dynamic.full),
            "ratio",
        ),
        Metric::new(
            "admission.rejected",
            stats.admission.rejected as f64,
            "count",
        ),
        Metric::new("pool.created", stats.pool.created as f64, "count"),
        Metric::new("journal.records", stats.journal.records as f64, "count"),
        Metric::new("journal.bytes", stats.journal.bytes as f64, "bytes"),
    ]);
    m
}

/// The `stats` snapshot, fetched over `client`.
fn fetch_stats(client: &mut Client) -> Result<StatsSnapshot, String> {
    match client.call(&Request::Stats.to_frame())?.0 {
        Response::Stats(s) => Ok(*s),
        other => Err(format!("stats answered {}", other.to_frame())),
    }
}

/// Sends `frames` in order over one connection to a fresh `pmc serve`
/// child; returns each response with its round trip in µs, and the final
/// `stats` snapshot.
fn tcp_session(
    pmc: &Path,
    dir: &Path,
    frames: &[String],
    trace: &mut Trace,
) -> Result<(Vec<(Response, f64)>, StatsSnapshot), String> {
    let server = Server::start(pmc, dir, "session")?;
    let mut client = Client::connect(&server.addr).map_err(|e| format!("connecting: {e}"))?;
    let wire = trace.open("transport.session");
    let mut out = Vec::with_capacity(frames.len());
    for frame in frames {
        let t = Instant::now();
        let (resp, rtt) = client.call(frame)?;
        trace.record_since("transport.rtt_us", Some(wire), t);
        out.push((resp, rtt.as_secs_f64() * 1e6));
    }
    trace.close(wire);
    let stats = fetch_stats(&mut client)?;
    drop(client);
    server.stop()?;
    Ok((out, stats))
}

/// Service-side replay for a solver workload: one session that loads the
/// workload's graph, then repeats (solve with the paper solver, one
/// single-edge update, stats). It is sent once to a `pmc serve` child over
/// TCP (round trips per verb) and once through an in-process `Service`
/// (decode / handle / encode). Every solve and update value is checked
/// against the input's known minimum cut.
pub fn traced_solver_frames(
    pmc: &Path,
    input: &SolverInput,
    seed: u64,
    dir: &Path,
    trace: &mut Trace,
) -> Result<Outcome, String> {
    const ROUNDS: u64 = 4;
    let mut g = input.graph.clone();
    let mut body = Vec::new();
    gio::write_dimacs(&g, &mut body).map_err(|e| e.to_string())?;
    let body = String::from_utf8(body).expect("DIMACS is ASCII");
    let mut frames = vec![Request::Load(LoadSource::Body(body)).to_frame()];
    let mut verbs = vec![Verb::Load];
    for k in 0..ROUNDS {
        let id = graph_id(&g);
        let e = g.edges()[update_edge(input, seed, k) as usize];
        let op = UpdateOp::ReweightEdge {
            u: u64::from(e.u) + 1,
            v: u64::from(e.v) + 1,
            w: e.w + 1,
        };
        apply_op(&mut g, &op);
        // One seed throughout, so updates after the first reuse the
        // service's pinned snapshot.
        let solve = Request::Solve {
            graphs: vec![id.clone()],
            solver: "paper".into(),
            seed: 1,
            deadline_ms: None,
        };
        let update = Request::Update {
            graph: id,
            ops: vec![op],
            seed: 1,
            deadline_ms: None,
        };
        frames.extend([
            solve.to_frame(),
            update.to_frame(),
            Request::Stats.to_frame(),
        ]);
        verbs.extend([Verb::Solve, Verb::Update, Verb::Stats]);
    }

    let (session, stats) = tcp_session(pmc, dir, &frames, trace)?;
    let inproc = replay_in_process(&frames, dir, trace)?;
    let responses: Vec<&Response> = session
        .iter()
        .map(|(r, _)| r)
        .chain(&inproc.responses)
        .collect();
    let wrong = responses
        .iter()
        .filter(|r| wrong_value(r, input.min_cut))
        .count() as u64;
    let refused = responses
        .iter()
        .filter(|r| matches!(r, Response::Error(_)))
        .count() as u64;
    let mut rtts: [Vec<f64>; 4] = Default::default();
    for ((_, us), verb) in session.iter().zip(&verbs) {
        rtts[verb.index()].push(*us);
    }
    let rtt_us: Vec<f64> = session.iter().map(|(_, us)| *us).collect();
    Ok(Outcome {
        attempted: 2 * frames.len() as u64,
        failed: wrong + refused,
        wrong,
        metrics: service_metrics(&inproc, rtts.map(|v| median(&v)), &rtt_us, &stats),
        samples: Vec::new(),
        context: Vec::new(),
    })
}

/// Whether a response carries a cut value other than `want`.
fn wrong_value(resp: &Response, want: u64) -> bool {
    match resp {
        Response::Solved { results } => results.iter().any(|r| r.value != want),
        Response::Updated { value, .. } => *value != want,
        _ => false,
    }
}

/// The `serve-mixed` traced run: one loadgen round against a fresh child
/// (round trips per verb, then `stats`); the same frames sent sequentially
/// to another fresh child and replayed through an in-process `Service`
/// (decode / handle / encode, and the paired transport overhead). Returns
/// the layer metrics with their check counts, and every graph the session
/// solved with the paper solver (with its Stoer–Wagner value) for the
/// solver-stage replay.
pub fn traced(
    pmc: &Path,
    seed: u64,
    dir: &Path,
    trace: &mut Trace,
) -> Result<(Outcome, Vec<SolverInput>), String> {
    let spec = spec(seed, 0);
    let server = Server::start(pmc, dir, "traced")?;
    let cfg = LoadgenConfig {
        addr: server.addr.clone(),
        connections: CONNECTIONS,
        spec: spec.clone(),
        mode: ArrivalMode::Closed,
        strict_residency: true,
    };
    let t = Instant::now();
    let report = loadgen::run(&cfg).map_err(|e| format!("loadgen: {e}"))?;
    trace.record_since("transport.loadgen_round", None, t);
    let mut client = Client::connect(&server.addr).map_err(|e| format!("connecting: {e}"))?;
    let stats = fetch_stats(&mut client)?;

    let mut replica = Replica::default();
    let mut frames = Vec::new();
    let mut failed =
        report.protocol_errors + report.overloaded + report.timed_out + report.mismatches;
    let mut solved: BTreeMap<String, Graph> = BTreeMap::new();
    for c in 0..CONNECTIONS {
        for step in connection_script(&spec, c).steps {
            if let Ok(Request::Solve { graphs, solver, .. }) = Request::parse_frame(&step.frame) {
                for id in graphs.into_iter().filter(|_| solver == "paper") {
                    if let Some(g) = replica.graphs.get(&id) {
                        solved.entry(id).or_insert_with(|| g.clone());
                    }
                }
            }
            replica.apply(&step.frame);
            frames.push(step.frame);
        }
    }
    let [checked, f, wrong] = check_values(&mut client, &replica)?;
    failed += f;
    drop(client);
    server.stop()?;

    let (session, _) = tcp_session(pmc, dir, &frames, trace)?;
    let inproc = replay_in_process(&frames, dir, trace)?;
    let responses = session.iter().map(|(r, _)| r).chain(&inproc.responses);
    failed += responses
        .filter(|r| matches!(r, Response::Error(_)))
        .count() as u64;
    let rtt_p50 = Verb::ALL.map(|v| report.verbs[v.index()].quantile(0.5) as f64);
    let rtt_us: Vec<f64> = session.iter().map(|(_, us)| *us).collect();
    let metrics = service_metrics(&inproc, rtt_p50, &rtt_us, &stats);

    let inputs = solved
        .into_values()
        .map(|graph| {
            let min_cut = stoer_wagner(&graph).map_or(0, |c| c.value);
            SolverInput {
                graph,
                min_cut,
                safe_edges: Vec::new(),
            }
        })
        .collect();
    let outcome = Outcome {
        attempted: report.total_requests() + checked + 2 * frames.len() as u64,
        failed,
        wrong,
        metrics,
        samples: Vec::new(),
        context: Vec::new(),
    };
    Ok((outcome, inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmc_bench::workload::Expect;

    #[test]
    fn round_scripts_are_deterministic_in_the_seed() {
        let frames = |seed, round| {
            (0..CONNECTIONS)
                .flat_map(|c| connection_script(&spec(seed, round), c).steps)
                .map(|s| s.frame)
                .collect::<Vec<_>>()
        };
        assert_eq!(frames(5, 0), frames(5, 0));
        assert_eq!(frames(5, 3), frames(5, 3));
        assert_ne!(frames(5, 0), frames(5, 1));
        assert_ne!(frames(5, 0), frames(6, 0));
    }

    #[test]
    fn replica_tracks_the_scripted_ids() {
        let spec = spec(9, 0);
        let replica = Replica::of(&spec);
        assert_eq!(replica.graphs.len(), CONNECTIONS * GRAPHS_PER_CONN);
        for c in 0..CONNECTIONS {
            let last = connection_script(&spec, c).steps.into_iter().rev();
            for step in last
                .filter(|s| matches!(s.expect, Expect::Updated { .. }))
                .take(1)
            {
                let Expect::Updated { id, .. } = step.expect else {
                    unreachable!()
                };
                assert!(replica.graphs.contains_key(&id), "conn {c}: {id} missing");
            }
        }
    }
}
