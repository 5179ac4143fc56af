//! The benchmark of record: a real `ColarmServer` driven over HTTP by two
//! closed-loop keep-alive clients in one process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload adhoc|drilldown|wide --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets the system up (dataset → `Colarm::build` → `save_index` →
//! lazy mapped load → server start → first query), warms up, then
//! measures a closed-loop phase of `--seconds`. With `--trace 1` a second phase of the same length follows
//! in which each client, after every answer, repeats the request's work
//! layer by layer in-process (see `trace.rs`). Two more set-ups follow
//! for the `setup_s` median, then every response of every phase is
//! checked against in-process execution. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

mod client;
mod stats;
mod trace;
mod workload;

use client::{Client, Reply};
use colarm::{
    Colarm, ColarmServer, MipIndexConfig, QueryOutcome, ServerConfig, ServerHandle,
    TransportConfig, ValidationMode,
};
use stats::{Failure, Tally};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Layers, Tracer};
use workload::{digest, Chain, StreamQuery, Workload, CHAIN_LEN};

/// Closed-loop clients, and transport workers (one per client).
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` and the persist/mip layer times are medians.
const SETUPS: usize = 3;
const WARMUP: Duration = Duration::from_secs(1);
/// Equal slices of the timed phase whose median rate is `throughput_qps`.
const THROUGHPUT_WINDOWS: usize = 5;
/// Work directory for snapshots and spilled response bodies, relative to
/// the directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("adhoc, drilldown or wide"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or(bad("a positive integer"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = WorkDir(PathBuf::from(WORK_DIR).join(std::process::id().to_string()));
    let result = std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("creating {}: {e}", work.0.display()))
        .and_then(|()| run(&args, &work.0));
    drop(work);
    match result {
        Ok(report) => report.print(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The run's scratch directory, removed on drop (also when a panic
/// unwinds), together with its parent once no other run uses it.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Served {
    colarm: Arc<Colarm>,
    server: Arc<ColarmServer>,
    handle: ServerHandle,
}

#[derive(Default, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    build_s: f64,
    save_s: f64,
    load_s: f64,
    first_query_ms: f64,
    cfis: usize,
    snapshot_bytes: u64,
}

/// The first query every set-up answers: a narrow strict region, the way
/// an analyst's session opens.
fn first_query() -> StreamQuery {
    let query = colarm::LocalizedQuery::builder()
        .range(colarm::data::RangeSpec::all().with(colarm::data::AttributeId(0), [0]))
        .minsupp(0.75)
        .minconf(0.6)
        .build()
        .expect("valid first query");
    StreamQuery::new(query, None)
}

fn setup(args: &Args, dir: &Path, rep: usize) -> Result<(Served, SetupTimes, Reply), String> {
    let start = Instant::now();
    let dataset = workload::dataset(args.workload, args.seed);
    let t = Instant::now();
    let config = MipIndexConfig {
        primary_support: args.workload.primary_support(),
        ..Default::default()
    };
    let built = Colarm::build(dataset, config).map_err(|e| format!("build: {e}"))?;
    let build_s = t.elapsed().as_secs_f64();
    let cfis = built.index().num_mips();
    let path = dir.join(format!("index-{rep}.colarmix"));
    let t = Instant::now();
    let snapshot_bytes =
        colarm::save_index(built.index(), &path).map_err(|e| format!("save: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();
    drop(built);
    let t = Instant::now();
    let (index, constants) = colarm::load_index_with_mode(&path, ValidationMode::Lazy)
        .map_err(|e| format!("load: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    let mut colarm = Colarm::from_index(index);
    if let Some(constants) = constants {
        colarm.set_cost_constants(constants);
    }
    let colarm = colarm.into_shared();
    let server = ColarmServer::new(colarm.clone(), ServerConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let transport = TransportConfig {
        workers: CLIENTS,
        ..TransportConfig::default()
    };
    let handle = server
        .serve_listener_with(listener, transport)
        .map_err(|e| format!("serve: {e}"))?;
    let t = Instant::now();
    let reply = Client::new(handle.addr().port())
        .send("POST", "/query", &first_query().body)
        .map_err(|e| format!("first query: {e}"))?;
    let first_query_ms = t.elapsed().as_secs_f64() * 1e3;
    let total_s = start.elapsed().as_secs_f64();
    let times = SetupTimes {
        total_s,
        build_s,
        save_s,
        load_s,
        first_query_ms,
        cfis,
        snapshot_bytes,
    };
    Ok((
        Served {
            colarm,
            server,
            handle,
        },
        times,
        reply,
    ))
}

// ---------------------------------------------------------------------------
// Closed-loop phases
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Timed,
    Traced,
}

#[derive(Clone, Copy)]
enum Kind {
    /// A query; `key` indexes its expected answer.
    Query {
        key: usize,
    },
    Create,
    Evict,
}

impl Kind {
    fn expected_status(self) -> u16 {
        match self {
            Kind::Create => 201,
            Kind::Query { .. } | Kind::Evict => 200,
        }
    }
}

/// One request a client sent. Query bodies answered 200 are spilled to the
/// client's body file (`body` = offset, length) for the checker, so they
/// neither sit in memory nor count in the served process's RSS.
struct Record {
    phase: Phase,
    kind: Kind,
    /// `None` on a transport error.
    status: Option<u16>,
    latency_ms: f64,
    /// Seconds from the phase start to the reply's last byte.
    done_s: f64,
    body: Option<(u64, usize)>,
}

struct ClientLog {
    records: Vec<Record>,
    spill: BufWriter<File>,
    spilled: u64,
    path: PathBuf,
}

struct Plan<'a> {
    workload: Workload,
    port: u16,
    stream: &'a [StreamQuery],
    chains: &'a [Chain],
    /// Next stream index (sessionless) or round (drill-down); persists
    /// across phases so every phase continues the stream.
    cursor: &'a AtomicUsize,
}

struct PhaseOut {
    wall_s: f64,
    ok_queries: usize,
}

/// Run one closed-loop phase, one client per log, for `duration`, extended
/// (up to six times its length) until `min_ok` queries were answered 200.
/// A tracer, if given, rides on the first client.
fn run_phase(
    plan: &Plan,
    phase: Phase,
    logs: &mut [ClientLog],
    duration: Duration,
    min_ok: usize,
    mut tracer: Option<&mut Tracer>,
) -> PhaseOut {
    let start = Instant::now();
    let deadline = start + duration;
    let hard_stop = start + duration * 6;
    let ok = AtomicUsize::new(0);
    let stop = || {
        let now = Instant::now();
        now >= hard_stop || (now >= deadline && ok.load(Ordering::Relaxed) >= min_ok)
    };
    std::thread::scope(|s| {
        for log in logs.iter_mut() {
            let (stop, ok, tracer) = (&stop, &ok, tracer.take());
            s.spawn(move || client_loop(plan, phase, start, log, tracer, stop, ok));
        }
    });
    PhaseOut {
        wall_s: start.elapsed().as_secs_f64(),
        ok_queries: ok.load(Ordering::Relaxed),
    }
}

fn client_loop(
    plan: &Plan,
    phase: Phase,
    start: Instant,
    log: &mut ClientLog,
    mut tracer: Option<&mut Tracer>,
    stop: &dyn Fn() -> bool,
    ok: &AtomicUsize,
) {
    let mut client = Client::new(plan.port);
    let mut send = |log: &mut ClientLog, kind: Kind, method: &str, path: &str, body: &[u8]| {
        let reply = client.send(method, path, body);
        let mut record = Record {
            phase,
            kind,
            status: reply.as_ref().ok().map(|r| r.status),
            latency_ms: reply
                .as_ref()
                .map_or(0.0, |r| r.latency.as_secs_f64() * 1e3),
            done_s: start.elapsed().as_secs_f64(),
            body: None,
        };
        if let (Kind::Query { .. }, Ok(r)) = (kind, &reply) {
            if r.status == 200 {
                ok.fetch_add(1, Ordering::Relaxed);
                log.spill.write_all(&r.body).expect("spill file writes");
                record.body = Some((log.spilled, r.body.len()));
                log.spilled += r.body.len() as u64;
            }
        }
        log.records.push(record);
        reply.ok()
    };
    while !stop() {
        let i = plan.cursor.fetch_add(1, Ordering::Relaxed);
        if plan.workload != Workload::Drilldown {
            let key = i % plan.stream.len();
            let q = &plan.stream[key];
            let reply = send(log, Kind::Query { key }, "POST", "/query", &q.body);
            if let (Some(t), Some(r)) = (tracer.as_deref_mut(), reply) {
                if r.status == 200 {
                    t.query(q, &r);
                }
            }
            continue;
        }
        let chain = i % plan.chains.len();
        let id = format!("round-{i}");
        let create = serde_json::to_string(&serde_json::json!({ "id": id })).expect("id encodes");
        send(log, Kind::Create, "POST", "/sessions", create.as_bytes());
        if let Some(t) = tracer.as_deref_mut() {
            t.session_created(format!("mirror-{i}"));
        }
        let path = format!("/sessions/{id}/query");
        for (step, q) in plan.chains[chain].steps.iter().enumerate() {
            if step > 0 && stop() {
                break;
            }
            let key = chain * CHAIN_LEN + step;
            let reply = send(log, Kind::Query { key }, "POST", &path, &q.body);
            if let (Some(t), Some(r)) = (tracer.as_deref_mut(), reply) {
                if r.status == 200 {
                    t.query(q, &r);
                }
            }
        }
        send(log, Kind::Evict, "DELETE", &format!("/sessions/{id}"), b"");
        if let Some(t) = tracer.as_deref_mut() {
            t.session_evicted();
        }
    }
    log.spill.flush().expect("spill file flushes");
}

/// Memory the process holds, in MB: `[held, VmRSS, RssFile]`. `held` is
/// the resident file-backed pages (the mapped snapshot, the code) plus the
/// heap bytes in use. It leaves out free memory the allocator keeps in its
/// per-thread arenas: how much that is depends on which threads happened
/// to serve the largest answers, and it moves `VmRSS` by tens of MB from
/// run to run.
fn memory_mb() -> [f64; 3] {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let [rss, file] = ["VmRSS:", "RssFile:"].map(|key| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb * 1024.0)
    });
    [
        (file + heap_in_use().unwrap_or(rss - file)) / 1e6,
        rss / 1e6,
        file / 1e6,
    ]
}

/// Heap bytes in use, from glibc's allocator statistics.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn heap_in_use() -> Option<f64> {
    #[repr(C)]
    struct MallInfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> MallInfo2;
    }
    // SAFETY: mallinfo2 (glibc ≥ 2.33) takes no arguments and returns the
    // struct by value; the layout above is glibc's `struct mallinfo2`.
    let info = unsafe { mallinfo2() };
    Some((info.uordblks + info.hblkhd) as f64)
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn heap_in_use() -> Option<f64> {
    None
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Report {
    tally: Tally,
    e2e: Vec<(&'static str, &'static str, f64)>,
    layers: Vec<(String, &'static str, f64)>,
    info: serde_json::Value,
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let mut tally = Tally::default();
    let first = first_query();

    // The first set-up is the one served. The others run after the
    // measured phases and only time the sequence again, so the served
    // process holds one build, like a server that indexed its own data.
    let (served, times, reply) = setup(args, dir, 0)?;
    let Served {
        colarm,
        server,
        handle,
    } = served;
    let mut setups = vec![times];
    let mut first_replies = vec![reply];
    let port = handle.addr().port();

    // Request streams.
    let mut stream: Vec<StreamQuery> = Vec::new();
    let mut next_index = 0usize;
    let chains = if args.workload == Workload::Drilldown {
        workload::chains(&colarm, args.seed, server.config().session)
    } else {
        let chunk = if args.workload == Workload::Wide {
            8
        } else {
            128
        };
        workload::extend_stream(
            args.workload,
            &colarm,
            args.seed,
            &mut stream,
            &mut next_index,
            chunk,
        );
        Vec::new()
    };

    let mut logs: Vec<ClientLog> = (0..CLIENTS)
        .map(|c| {
            let path = dir.join(format!("bodies-{c}"));
            let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(ClientLog {
                records: Vec::new(),
                spill: BufWriter::with_capacity(1 << 20, file),
                spilled: 0,
                path,
            })
        })
        .collect::<Result<_, String>>()?;
    let cursor = AtomicUsize::new(0);
    let measured = Duration::from_secs(args.seconds);

    let warm = {
        let plan = Plan {
            workload: args.workload,
            port,
            stream: &stream,
            chains: &chains,
            cursor: &cursor,
        };
        run_phase(&plan, Phase::Warmup, &mut logs, WARMUP, 0, None)
    };
    if args.workload != Workload::Drilldown {
        // Size the never-repeating stream from the warm-up rate, with room
        // for the traced phase and a margin; wrap-arounds are reported.
        // The traced phase may wrap: it measures layers, not the stream.
        let rate = warm.ok_queries as f64 / warm.wall_s;
        let target = cursor.load(Ordering::Relaxed)
            + (rate * args.seconds as f64 * 1.3) as usize
            + stats::min_samples_for(90.0);
        workload::extend_stream(
            args.workload,
            &colarm,
            args.seed,
            &mut stream,
            &mut next_index,
            target,
        );
    }
    let first_measured = cursor.load(Ordering::Relaxed);
    let plan = Plan {
        workload: args.workload,
        port,
        stream: &stream,
        chains: &chains,
        cursor: &cursor,
    };

    let pool_before = colarm::pool_stats();
    let timed = run_phase(
        &plan,
        Phase::Timed,
        &mut logs,
        measured,
        stats::min_samples_for(90.0),
        None,
    );
    let pool = colarm::pool_stats().delta_since(&pool_before);
    let [serve_rss_mb, vm_rss_mb, rss_file_mb] = memory_mb();

    let wrapped =
        args.workload != Workload::Drilldown && cursor.load(Ordering::Relaxed) > stream.len();

    // One traced client, so each layer call and its HTTP twin run on an
    // otherwise idle server and the differences between them mean something.
    let traced = args.trace.then(|| {
        let mut tracer = Tracer::new(colarm.clone(), server.clone());
        run_phase(
            &plan,
            Phase::Traced,
            &mut logs[..1],
            measured,
            stats::min_samples_for(50.0),
            Some(&mut tracer),
        );
        tracer.layers
    });
    handle.shutdown();
    for rep in 1..SETUPS {
        let (again, times, reply) = setup(args, dir, rep)?;
        again.handle.shutdown();
        let _ = std::fs::remove_file(dir.join(format!("index-{rep}.colarmix")));
        setups.push(times);
        first_replies.push(reply);
    }

    // Check every response against in-process execution.
    let first_expected = digest(&colarm.run(&first.request).map_err(|e| e.to_string())?.rules);
    for reply in &first_replies {
        tally.record(
            Tally::classify_status(reply.status, 200)
                .or_else(|| check_answer(&reply.body, Some(first_expected)).0),
        );
    }
    let expected = expected_answers(args.workload, &colarm, &stream, &chains, &logs);
    let checked = check_all(&logs, &expected)?;
    for (verdict, _) in checked.iter().flatten() {
        tally.record(*verdict);
    }

    // End-to-end metrics of the timed phase.
    let timed_records = || {
        logs.iter()
            .flat_map(|l| &l.records)
            .filter(|r| r.phase == Phase::Timed)
    };
    let is_query = |r: &&Record| matches!(r.kind, Kind::Query { .. }) && r.status.is_some();
    let latencies = stats::sorted(
        timed_records()
            .filter(is_query)
            .map(|r| r.latency_ms)
            .collect(),
    );
    let n = latencies.len();
    let p50 = stats::percentile(&latencies, 50.0).unwrap_or(0.0);
    let p90 = stats::percentile(&latencies, 90.0).unwrap_or(0.0);
    let rules_per_answer: Vec<f64> = logs
        .iter()
        .zip(&checked)
        .flat_map(|(l, v)| l.records.iter().zip(v))
        .filter(|(r, _)| r.phase == Phase::Timed)
        .filter_map(|(_, v)| v.1.map(|rules| rules as f64))
        .collect();
    let rules_quartiles = stats::quartiles(&stats::sorted(rules_per_answer));
    // Throughput is the median rate over equal slices of the timed phase,
    // so a few seconds of outside load on a shared host skew it less.
    let done: Vec<f64> = timed_records()
        .filter(|r| matches!(r.kind, Kind::Query { .. }) && r.status == Some(200))
        .map(|r| r.done_s)
        .collect();
    let window_qps = stats::window_rates(&done, timed.wall_s, THROUGHPUT_WINDOWS);
    let med =
        |f: fn(&SetupTimes) -> f64| stats::median(&stats::sorted(setups.iter().map(f).collect()));
    let e2e = vec![
        (
            "throughput_qps",
            "1/s",
            stats::median(&stats::sorted(window_qps.clone())),
        ),
        ("latency_p50_ms", "ms", p50),
        ("latency_p90_ms", "ms", p90),
        ("setup_s", "s", med(|s| s.total_s)),
        ("snapshot_mb", "MB", med(|s| s.snapshot_bytes as f64) / 1e6),
        ("serve_rss_mb", "MB", serve_rss_mb),
    ];

    let mut layers: Vec<(String, &'static str, f64)> = Vec::new();
    if let Some(traced) = &traced {
        let traced_p50 = stats::percentile(
            &stats::sorted(
                logs.iter()
                    .flat_map(|l| &l.records)
                    .filter(|r| r.phase == Phase::Traced)
                    .filter(is_query)
                    .map(|r| r.latency_ms)
                    .collect(),
            ),
            50.0,
        )
        .unwrap_or(0.0);
        layers = layer_metrics(
            traced,
            &setups,
            &pool,
            timed.ok_queries,
            traced_p50 / p50,
            tally.failed_ratio(),
        );
    }

    let info = serde_json::json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_wall_s": timed.wall_s,
        "throughput_overall_qps": timed.ok_queries as f64 / timed.wall_s,
        "throughput_window_qps": window_qps,
        "vm_rss_mb": vm_rss_mb,
        "rss_file_mb": rss_file_mb,
        "latency_samples": n,
        "samples_beyond_p90": stats::samples_beyond(n, 90.0),
        "p90_supported": stats::supports(n, 90.0),
        "rules_per_answer_quartiles": rules_quartiles,
        "stream_queries": if args.workload == Workload::Drilldown { chains.len() * CHAIN_LEN } else { stream.len() },
        "stream_wrapped": wrapped,
        "first_measured_request": first_measured,
        "cfis": setups[0].cfis,
        "setups": SETUPS,
        "tally": serde_json::json!({
            "attempted": tally.attempted,
            "transport_errors": tally.transport,
            "overloaded_429": tally.overloaded,
            "bad_status": tally.bad_status,
            "mismatched": tally.mismatched,
            "failed_ratio": tally.failed_ratio(),
        }),
        "host": serde_json::json!({
            "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
            "git_revision": git_revision(),
        }),
    });
    Ok(Report {
        tally,
        e2e,
        layers,
        info,
    })
}

/// In-process answers for every answered query key. Drill-down and `wide`
/// answers were computed when their streams were generated; `adhoc`
/// answers are computed here, one `Colarm::run` per answered query.
fn expected_answers(
    workload: Workload,
    colarm: &Colarm,
    stream: &[StreamQuery],
    chains: &[Chain],
    logs: &[ClientLog],
) -> Vec<Option<u64>> {
    if workload == Workload::Drilldown {
        return chains
            .iter()
            .flat_map(|c| c.steps.iter().map(|s| s.expected))
            .collect();
    }
    let mut needed = vec![false; stream.len()];
    for r in logs.iter().flat_map(|l| &l.records) {
        if let (Kind::Query { key }, Some(_)) = (r.kind, r.body) {
            needed[key] = stream[key].expected.is_none();
        }
    }
    workload::par_map(stream.len(), |k| {
        if !needed[k] {
            return stream[k].expected;
        }
        colarm
            .run(&stream[k].request)
            .ok()
            .map(|o| digest(&o.rules))
    })
}

/// A request's verdict (`None` = correct) and its answer's rule count.
type Verdict = (Option<Failure>, Option<usize>);

/// Decode a 200 answer and compare its rules with the in-process ones.
fn check_answer(body: &[u8], expected: Option<u64>) -> Verdict {
    let decoded = std::str::from_utf8(body)
        .ok()
        .and_then(|text| serde_json::from_str::<QueryOutcome>(text).ok());
    match (decoded, expected) {
        (Some(o), Some(e)) if digest(&o.rules) == e => (None, Some(o.rules.len())),
        (Some(o), _) => (Some(Failure::Mismatch), Some(o.rules.len())),
        (None, _) => (Some(Failure::Mismatch), None),
    }
}

/// Verdict and rule count of every record, per client. Spilled bodies are
/// decoded on two threads.
fn check_all(logs: &[ClientLog], expected: &[Option<u64>]) -> Result<Vec<Vec<Verdict>>, String> {
    logs.iter()
        .map(|log| {
            let file = File::open(&log.path).map_err(|e| format!("{}: {e}", log.path.display()))?;
            Ok(workload::par_map(log.records.len(), |i| {
                let r = &log.records[i];
                let Some(status) = r.status else {
                    return (Some(Failure::Transport), None);
                };
                if let Some(f) = Tally::classify_status(status, r.kind.expected_status()) {
                    return (Some(f), None);
                }
                let (Kind::Query { key }, Some((offset, len))) = (r.kind, r.body) else {
                    return (None, None);
                };
                let mut body = vec![0u8; len];
                if file.read_exact_at(&mut body, offset).is_err() {
                    return (Some(Failure::Transport), None);
                }
                check_answer(&body, expected[key])
            }))
        })
        .collect()
}

fn layer_metrics(
    l: &Layers,
    setups: &[SetupTimes],
    pool: &colarm::PoolStats,
    timed_queries: usize,
    overhead: f64,
    failed_ratio: f64,
) -> Vec<(String, &'static str, f64)> {
    let med =
        |f: fn(&SetupTimes) -> f64| stats::median(&stats::sorted(setups.iter().map(f).collect()));
    let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
    let q = l.queries;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let s = &l.session;
    let lookups = s.subset_hits + s.subset_misses + s.subsets_derived;
    let columns = s.column_hits + s.column_misses + s.columns_derived;
    let (v_in, v_out) = colarm::OpKind::ALL
        .iter()
        .zip(&l.ops)
        .filter(|(k, _)| matches!(k, colarm::OpKind::Verify | colarm::OpKind::SupportedVerify))
        .fold((0.0, 0.0), |(i, o), (_, op)| (i + op[1], o + op[2]));
    let mut m: Vec<(String, &'static str, f64)> = vec![
        ("persist.save_s".into(), "s", med(|s| s.save_s)),
        ("persist.load_s".into(), "s", med(|s| s.load_s)),
        (
            "persist.first_query_ms".into(),
            "ms",
            med(|s| s.first_query_ms),
        ),
        ("mip.build_s".into(), "s", med(|s| s.build_s)),
        ("mip.cfis".into(), "count", med(|s| s.cfis as f64)),
        ("data.resolve_us".into(), "us", per(l.resolve_us, q)),
        (
            "data.subset_records".into(),
            "count",
            per(l.subset_records, q),
        ),
        ("optimizer.choose_us".into(), "us", per(l.choose_us, q)),
    ];
    for (k, plan) in colarm::PlanKind::ALL.iter().enumerate() {
        m.push((
            format!("optimizer.picks.{}", plan.name()),
            "ratio",
            per(l.picks[k] as f64, q),
        ));
    }
    m.push(("engine.execute_us".into(), "us", per(l.execute_us, q)));
    for (k, op) in colarm::OpKind::ALL.iter().enumerate() {
        let name = op.name().to_lowercase().replace('-', "_");
        m.push((format!("ops.{name}_us"), "us", per(l.ops[k][0], q)));
        m.push((format!("ops.{name}_in"), "count", per(l.ops[k][1], q)));
        m.push((format!("ops.{name}_out"), "count", per(l.ops[k][2], q)));
    }
    m.extend([
        (
            "ops.rules_per_candidate".into(),
            "ratio",
            if v_in == 0.0 { 0.0 } else { v_out / v_in },
        ),
        (
            "session.run_us".into(),
            "us",
            per(l.session_run_us, l.session_runs),
        ),
        (
            "session.subset_hit_ratio".into(),
            "ratio",
            ratio(s.subset_hits, lookups),
        ),
        (
            "session.derived_ratio".into(),
            "ratio",
            ratio(s.subsets_derived, lookups),
        ),
        (
            "session.column_hit_ratio".into(),
            "ratio",
            ratio(s.column_hits, columns),
        ),
        (
            "session.column_derived_ratio".into(),
            "ratio",
            ratio(s.columns_derived, columns),
        ),
        (
            "session.answer_hit_ratio".into(),
            "ratio",
            ratio(s.answer_hits, s.answer_hits + s.answer_misses),
        ),
        ("request.encode_us".into(), "us", per(l.encode_us, q)),
        ("request.decode_us".into(), "us", per(l.decode_us, q)),
        ("request.bytes_per_answer".into(), "bytes", per(l.bytes, q)),
        ("request.rules_per_answer".into(), "count", per(l.rules, q)),
        ("server.handle_us".into(), "us", per(l.handle_us, q)),
        (
            "server.http_us".into(),
            "us",
            per(l.rtt_us - l.handle_us, q),
        ),
        (
            "server.session_create_us".into(),
            "us",
            per(l.create_us, l.creates),
        ),
        (
            "server.session_evict_us".into(),
            "us",
            per(l.evict_us, l.evicts),
        ),
        (
            "par.tasks_per_query".into(),
            "count",
            per(pool.tasks_submitted as f64, timed_queries as u64),
        ),
        (
            "par.steals_per_query".into(),
            "count",
            per(pool.steals as f64, timed_queries as u64),
        ),
        (
            "trace.coverage".into(),
            "ratio",
            if l.handle_us == 0.0 {
                0.0
            } else {
                l.covered_us / l.handle_us
            },
        ),
        ("trace.overhead".into(), "ratio", overhead),
        ("failed_ratio".into(), "ratio", failed_ratio),
    ]);
    m
}

/// The commit the benchmark was built from, read from `.git` when the
/// run directory is a git checkout; `unknown` otherwise.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

impl Report {
    fn print(&self, args: &Args) {
        println!("# perfbench {}", self.info);
        for (name, unit, value) in &self.e2e {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        for (name, unit, value) in &self.layers {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        let mut metrics = serde_json::Map::<String, serde_json::Value>::new();
        let mut put = |name: &str, unit: &str, value: f64| {
            metrics.insert(
                name.to_string(),
                serde_json::json!({ "value": value, "unit": unit }),
            );
        };
        if args.trace {
            for (name, unit, value) in &self.layers {
                put(name, unit, *value);
            }
        } else {
            for (name, unit, value) in &self.e2e {
                put(name, unit, *value);
            }
        }
        let line = serde_json::json!({
            "correct": self.tally.failed() == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed(),
            "metrics": serde_json::Value::Object(metrics),
        });
        println!("{line}");
    }
}
