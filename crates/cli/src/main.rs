//! `colarm` — command-line interface to the COLARM system.
//!
//! ```text
//! colarm demo
//!     The paper's Table 1 salary walkthrough.
//!
//! colarm index --data D.tsv --primary 0.1 [--out index.snap] [--no-stats]
//!     Offline phase: build (and optionally persist) a MIP-index over a
//!     TSV dataset (header of attribute names, one record per line).
//!     Snapshots are written in the checksummed binary format (atomic
//!     temp-file + rename); `--index` also accepts legacy JSON snapshots.
//!     `--no-stats` skips the statistics catalog, so the optimizer prices
//!     plans from global averages only (A/B baseline for the catalog).
//!
//! colarm query (--index index.snap | --data D.tsv --primary P) "REPORT …"
//!     Run one localized mining query (the paper's query language).
//!     Prefix the query with `EXPLAIN ANALYZE` to execute it with metrics
//!     on and print the per-operator predicted-vs-actual cost report
//!     (`--json` emits it machine-readable).
//!
//! colarm repl (--index index.snap | --data D.tsv --primary P)
//!     Interactive session: enter queries line by line; :help for the
//!     meta-commands (:plans, :explain, :advise, :stats, :save, :load,
//!     :quit).
//!
//! colarm serve (--index [NAME=]I.snap … | --data D.tsv --primary P) [--addr H:P]
//!     Long-running multi-tenant query daemon speaking HTTP/1.1 + JSON
//!     over a bounded acceptor + `--workers` I/O worker pool. Repeating
//!     `--index NAME=PATH` hosts several named snapshots, each routable
//!     as `/indexes/{name}/…` (the bare routes alias the first/default
//!     index). Tenants create drill-down sessions (`POST /sessions`)
//!     whose focal-subset and column caches persist across queries;
//!     sessions idle past `--idle-ttl-secs` are evicted, and the server
//!     admits at most `--concurrency` queries at once (excess gets 429,
//!     not a queue). SIGHUP reloads every index from its source path
//!     into a new generation (live sessions keep their snapshot);
//!     SIGTERM/SIGINT drain in-flight requests and exit cleanly.
//!
//! colarm advise (--index index.snap | --data D.tsv --primary P)
//!     Mine suggested query parameters from the data (§7 future work).
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

mod repl;

use colarm::{
    Colarm, ColarmServer, MipIndexConfig, QueryRequest, QuerySession, ServerConfig,
    TransportConfig,
};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "demo" => demo(),
        "index" => cmd_index(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "repl" => cmd_repl(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "advise" => cmd_advise(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: colarm <demo|index|query|repl|serve|advise> [options]
  demo                                   the paper's salary walkthrough
  index  --data D.tsv --primary P [--out index.snap] [--no-stats]
         --out writes the checksummed binary snapshot format (atomic);
         --no-stats skips the statistics catalog (optimizer falls back
         to global averages — the A/B baseline)
  query  (--index I.snap | --data D.tsv --primary P) [--json] \"REPORT ...\"
         prefix the query with EXPLAIN ANALYZE for per-operator
         predicted-vs-actual cost tracing (--json for machine-readable)
  repl   (--index I.snap | --data D.tsv --primary P)
  serve  (--index [NAME=]I.snap … | --data D.tsv --primary P) [--addr H:P]
         multi-tenant HTTP/JSON query daemon (default 127.0.0.1:7878);
         repeat --index NAME=PATH to host several named snapshots
         (routes: /indexes/{name}/query, /indexes/{name}/sessions/…);
         SIGHUP reloads all indexes in place, SIGTERM drains and exits
         sessions: --max-sessions N (64)   --idle-ttl-secs N (900)
                   --concurrency N (8)     --timeout-cap-ms N (none)
         sockets:  --workers N (4)         --idle-conn-secs N (120)
                   --read-timeout-ms N (10000)
                   --write-timeout-ms N (10000)
  advise (--index I.snap | --data D.tsv --primary P)
  --index also accepts legacy JSON snapshots (auto-detected by magic)
  common: --validate M    checksum mode for mapped (v4) snapshots:
                          `lazy` (default) maps the file and serves the
                          first query in milliseconds, deferring bulk
                          checksums to that first query; `eager` verifies
                          every checksum before serving anything
          --threads N     worker threads for build + query execution
                          (default: COLARM_THREADS env, else all cores;
                           1 = sequential; answers are identical either way)
          --timeout-ms N  per-query deadline; a query past it fails with
                          a `canceled in <OPERATOR>` error (0 cancels
                          immediately). In the repl, adjustable via
                          :timeout <ms>|off";

/// Parsed `--flag value` options plus positional arguments.
struct Options {
    data: Option<String>,
    /// `--index` occurrences, each `PATH` or `NAME=PATH` (`serve` hosts
    /// them all; the other commands use the first).
    indexes: Vec<String>,
    out: Option<String>,
    primary: f64,
    no_stats: bool,
    json: bool,
    timeout_ms: Option<u64>,
    addr: String,
    max_sessions: Option<usize>,
    idle_ttl_secs: Option<u64>,
    concurrency: Option<usize>,
    timeout_cap_ms: Option<u64>,
    workers: Option<usize>,
    idle_conn_secs: Option<u64>,
    read_timeout_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
    validate: colarm::ValidationMode,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        data: None,
        indexes: Vec::new(),
        out: None,
        primary: 0.1,
        no_stats: false,
        json: false,
        timeout_ms: None,
        addr: "127.0.0.1:7878".to_string(),
        max_sessions: None,
        idle_ttl_secs: None,
        concurrency: None,
        timeout_cap_ms: None,
        workers: None,
        idle_conn_secs: None,
        read_timeout_ms: None,
        write_timeout_ms: None,
        validate: colarm::ValidationMode::Lazy,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--data" => opts.data = Some(take(&mut it, "--data")?),
            "--index" => opts.indexes.push(take(&mut it, "--index")?),
            "--out" => opts.out = Some(take(&mut it, "--out")?),
            "--no-stats" => opts.no_stats = true,
            "--json" => opts.json = true,
            "--timeout-ms" => {
                let ms: u64 = take(&mut it, "--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms expects a non-negative integer".to_string())?;
                opts.timeout_ms = Some(ms);
            }
            "--addr" => opts.addr = take(&mut it, "--addr")?,
            "--max-sessions" => {
                opts.max_sessions = Some(parse_flag(&mut it, "--max-sessions")?);
            }
            "--idle-ttl-secs" => {
                opts.idle_ttl_secs = Some(parse_flag(&mut it, "--idle-ttl-secs")?);
            }
            "--concurrency" => {
                opts.concurrency = Some(parse_flag(&mut it, "--concurrency")?);
            }
            "--timeout-cap-ms" => {
                opts.timeout_cap_ms = Some(parse_flag(&mut it, "--timeout-cap-ms")?);
            }
            "--workers" => {
                opts.workers = Some(parse_flag(&mut it, "--workers")?);
            }
            "--idle-conn-secs" => {
                opts.idle_conn_secs = Some(parse_flag(&mut it, "--idle-conn-secs")?);
            }
            "--read-timeout-ms" => {
                opts.read_timeout_ms = Some(parse_flag(&mut it, "--read-timeout-ms")?);
            }
            "--write-timeout-ms" => {
                opts.write_timeout_ms = Some(parse_flag(&mut it, "--write-timeout-ms")?);
            }
            "--validate" => {
                opts.validate = match take(&mut it, "--validate")?.as_str() {
                    "eager" => colarm::ValidationMode::Eager,
                    "lazy" => colarm::ValidationMode::Lazy,
                    other => {
                        return Err(format!(
                            "--validate expects `eager` or `lazy`, got `{other}`"
                        ))
                    }
                };
            }
            "--primary" => {
                opts.primary = take(&mut it, "--primary")?
                    .parse()
                    .map_err(|_| "--primary expects a number in (0, 1]".to_string())?;
            }
            "--threads" => {
                let n: usize = take(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_string())?;
                if n == 0 {
                    return Err("--threads expects a positive integer".to_string());
                }
                colarm_data::par::set_max_threads(n);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            positional => opts.positional.push(positional.to_string()),
        }
    }
    Ok(opts)
}

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} expects a value"))
}

fn parse_flag<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    take(it, flag)?
        .parse()
        .map_err(|_| format!("{flag} expects a non-negative integer"))
}

/// Load a system from either a snapshot (binary or legacy JSON,
/// auto-detected) or a TSV dataset.
fn load_system(opts: &Options) -> Result<Colarm, String> {
    if let Some(spec) = opts.indexes.first() {
        let (_, path) = split_index_spec(spec);
        return Colarm::load_index_snapshot_with(path, opts.validate)
            .map_err(|e| format!("restoring {path}: {e}"));
    }
    let Some(path) = &opts.data else {
        return Err("provide --index FILE or --data FILE".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let dataset = colarm_data::io::from_tsv(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    eprintln!(
        "[indexed {} records × {} attributes at primary support {:.1}%]",
        dataset.num_records(),
        dataset.schema().num_attributes(),
        opts.primary * 100.0
    );
    Colarm::build(
        dataset,
        MipIndexConfig {
            primary_support: opts.primary,
            collect_stats: !opts.no_stats,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())
}

fn demo() -> Result<(), String> {
    let colarm = Colarm::build(
        colarm_data::synth::salary(),
        MipIndexConfig {
            primary_support: 2.0 / 11.0,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let schema = colarm.index().dataset().schema().clone();
    println!("The paper's Table 1 salary dataset ({} records).", 11);
    let text = "REPORT LOCALIZED ASSOCIATION RULES FROM Dataset salary \
                WHERE RANGE Location = (Seattle), Gender = (F) \
                HAVING minsupport = 75% AND minconfidence = 90%;";
    println!("\n{text}\n");
    let out = colarm.run_text(text).map_err(|e| e.to_string())?;
    println!(
        "plan {} over {} records → {} rule(s):",
        out.plan.name(),
        out.subset_size,
        out.rules.len()
    );
    for rule in &out.rules {
        println!("  {}", rule.display(&schema));
    }
    println!("\nThe global trend (Age=20-30 → Salary=90K-120K, 45%/83%) does not\nhold in this subset — Simpson's paradox, mined online.");
    Ok(())
}

fn cmd_index(args: &[String]) -> Result<(), String> {
    let opts = parse_options(args)?;
    if opts.data.is_none() {
        return Err("index requires --data FILE".to_string());
    }
    let colarm = load_system(&opts)?;
    println!(
        "MIP-index: {} closed frequent itemsets, R-tree height {}, primary count {}, \
         statistics catalog {}",
        colarm.index().num_mips(),
        colarm.index().rtree().height(),
        colarm.index().primary_count(),
        if colarm.index().catalog().is_some() {
            "present"
        } else {
            "absent (global-average costing)"
        }
    );
    if let Some(out) = &opts.out {
        let bytes = colarm
            .save_index_snapshot(out)
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("snapshot written to {out} ({bytes} bytes, binary format v{})",
            colarm::persist::FORMAT_VERSION);
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let opts = parse_options(args)?;
    let Some(text) = opts.positional.first() else {
        return Err("query requires a \"REPORT LOCALIZED ASSOCIATION RULES …\" string".to_string());
    };
    let colarm = load_system(&opts)?.into_shared();
    let schema = colarm.index().dataset().schema().clone();
    // One-shot queries run through a session so the --timeout-ms deadline
    // applies uniformly; a timed-out query surfaces the engine's
    // `canceled in <OPERATOR>` error on stderr.
    let session = QuerySession::new(colarm);
    session.set_timeout(opts.timeout_ms.map(Duration::from_millis));
    if let Some(query_text) = repl::strip_analyze_prefix(text) {
        let request = QueryRequest::text(query_text).with_analyze(true);
        let out = session.run(&request).map_err(|e| e.to_string())?;
        let report = out.analyze.expect("analyze runs carry a report");
        if opts.json {
            println!("{}", report.to_json());
        } else {
            println!("{report}");
        }
        return Ok(());
    }
    let request = QueryRequest::text(text.as_str()).with_trace(true);
    let out = session.run(&request).map_err(|e| e.to_string())?;
    if opts.json {
        // The same QueryOutcome JSON the server returns, so scripts can
        // diff wire answers against in-process execution byte for byte.
        println!(
            "{}",
            serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "plan {} over {} records in {:?} → {} rule(s)",
        out.plan.name(),
        out.subset_size,
        out.trace.as_ref().map(|t| t.total).unwrap_or_default(),
        out.rules.len()
    );
    for rule in &out.rules {
        println!("  {}", rule.display(&schema));
    }
    Ok(())
}

fn cmd_repl(args: &[String]) -> Result<(), String> {
    let opts = parse_options(args)?;
    let colarm = load_system(&opts)?;
    repl::run(colarm.into_shared(), opts.timeout_ms.map(Duration::from_millis))
}

/// Split an `--index` argument into `(name, path)`. `NAME=PATH` names
/// the index; a bare `PATH` gets the default name for the first entry.
/// A `=` whose left side contains a path separator is part of the path.
fn split_index_spec(spec: &str) -> (Option<&str>, &str) {
    match spec.split_once('=') {
        Some((name, path)) if !name.is_empty() && !name.contains('/') => (Some(name), path),
        _ => (None, spec),
    }
}

/// Where one served index came from, so SIGHUP can reload it.
enum IndexSource {
    Snapshot(String),
    Tsv { path: String, primary: f64 },
}

impl IndexSource {
    fn load(&self, validate: colarm::ValidationMode) -> Result<Colarm, String> {
        match self {
            IndexSource::Snapshot(path) => {
                Colarm::load_index_snapshot_with(path, validate)
                    .map_err(|e| format!("restoring {path}: {e}"))
            }
            IndexSource::Tsv { path, primary } => {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let dataset = colarm_data::io::from_tsv(&text)
                    .map_err(|e| format!("parsing {path}: {e}"))?;
                Colarm::build(
                    dataset,
                    MipIndexConfig {
                        primary_support: *primary,
                        ..Default::default()
                    },
                )
                .map_err(|e| e.to_string())
            }
        }
    }
}

/// Signal-to-flag bridge: handlers only flip atomics (async-signal-safe);
/// the serve loop polls them. On non-unix targets the flags exist but
/// nothing sets them — `colarm serve` runs until killed.
mod sig {
    use std::sync::atomic::AtomicBool;

    pub static RELOAD: AtomicBool = AtomicBool::new(false);
    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    pub fn install() {
        use std::sync::atomic::Ordering;
        const SIGHUP: i32 = 1;
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" fn on_hup(_: i32) {
            RELOAD.store(true, Ordering::SeqCst);
        }
        extern "C" fn on_term(_: i32) {
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
        unsafe extern "C" {
            // C library signal(2), linked through std; handlers stay
            // installed (glibc gives BSD semantics).
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let hup = on_hup as extern "C" fn(i32) as *const () as usize;
        let term = on_term as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGHUP, hup);
            signal(SIGINT, term);
            signal(SIGTERM, term);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::sync::atomic::Ordering;

    let opts = parse_options(args)?;
    let mut config = ServerConfig::default();
    if let Some(n) = opts.max_sessions {
        if n == 0 {
            return Err("--max-sessions expects a positive integer".to_string());
        }
        config.max_sessions = n;
    }
    if let Some(secs) = opts.idle_ttl_secs {
        config.idle_ttl = Duration::from_secs(secs);
    }
    if let Some(n) = opts.concurrency {
        if n == 0 {
            return Err("--concurrency expects a positive integer".to_string());
        }
        config.max_concurrency = n;
    }
    if let Some(ms) = opts.timeout_cap_ms {
        config.timeout_cap = Some(Duration::from_millis(ms));
    }
    let mut transport = TransportConfig::default();
    if let Some(n) = opts.workers {
        if n == 0 {
            return Err("--workers expects a positive integer".to_string());
        }
        transport.workers = n;
    }
    if let Some(secs) = opts.idle_conn_secs {
        transport.idle_conn_ttl = Duration::from_secs(secs.max(1));
    }
    if let Some(ms) = opts.read_timeout_ms {
        transport.read_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = opts.write_timeout_ms {
        transport.write_timeout = Duration::from_millis(ms.max(1));
    }

    // Resolve the index sources: every `--index [NAME=]PATH`, or the
    // `--data` TSV as the default index. Sources are remembered so
    // SIGHUP can reload each one into a new generation.
    let mut sources: Vec<(String, IndexSource)> = Vec::new();
    for (i, spec) in opts.indexes.iter().enumerate() {
        let (name, path) = split_index_spec(spec);
        let name = match name {
            Some(name) => name.to_string(),
            None if i == 0 => colarm::DEFAULT_INDEX.to_string(),
            None => {
                return Err(format!(
                    "--index {path}: additional indexes need a name (--index NAME=PATH)"
                ))
            }
        };
        sources.push((name, IndexSource::Snapshot(path.to_string())));
    }
    if sources.is_empty() {
        let Some(path) = &opts.data else {
            return Err("provide --index [NAME=]FILE (repeatable) or --data FILE".to_string());
        };
        sources.push((
            colarm::DEFAULT_INDEX.to_string(),
            IndexSource::Tsv {
                path: path.clone(),
                primary: opts.primary,
            },
        ));
    }

    let mut named = Vec::with_capacity(sources.len());
    for (name, source) in &sources {
        named.push((name.clone(), source.load(opts.validate)?.into_shared()));
    }
    let server = ColarmServer::with_named_indexes(
        named,
        config,
        std::sync::Arc::new(colarm::SystemClock::default()),
    )?;

    sig::install();
    let listener = std::net::TcpListener::bind(&opts.addr)
        .map_err(|e| format!("binding {}: {e}", opts.addr))?;
    let handle = server
        .serve_listener_with(listener, transport)
        .map_err(|e| format!("serving {}: {e}", opts.addr))?;
    eprintln!(
        "colarm serving on http://{} — indexes [{}], {} workers; \
         POST /query, POST /sessions, GET /indexes, GET /health \
         (SIGHUP reloads, SIGTERM drains)",
        handle.addr(),
        server.index_names().join(", "),
        opts.workers.unwrap_or(TransportConfig::default().workers),
    );

    loop {
        std::thread::sleep(Duration::from_millis(200));
        if sig::SHUTDOWN.load(Ordering::SeqCst) {
            eprintln!("colarm: draining connections and shutting down");
            handle.shutdown();
            return Ok(());
        }
        if sig::RELOAD.swap(false, Ordering::SeqCst) {
            for (name, source) in &sources {
                match source.load(opts.validate) {
                    Ok(mut colarm) => {
                        // Carry the retiring generation's fitted cost
                        // constants forward, so a reload does not lose
                        // what feedback calibration learned.
                        if let Some(old) = server.index(name) {
                            colarm.adopt_calibration(&old);
                        }
                        let generation = server.reload_index(name, colarm.into_shared());
                        eprintln!(
                            "colarm: reloaded index `{name}` (generation {})",
                            generation.unwrap_or(0)
                        );
                    }
                    // A failed reload keeps the old generation serving.
                    Err(e) => eprintln!("colarm: reload of `{name}` failed, keeping current: {e}"),
                }
            }
        }
    }
}

fn cmd_advise(args: &[String]) -> Result<(), String> {
    let opts = parse_options(args)?;
    let colarm = load_system(&opts)?;
    let advice = colarm::advisor::advise(colarm.index(), &colarm::advisor::AdvisorConfig::default())
        .map_err(|e| e.to_string())?;
    println!(
        "suggested thresholds: minsupport {:.1}%, minconfidence {:.1}%",
        advice.minsupp * 100.0,
        advice.minconf * 100.0
    );
    if advice.ranges.is_empty() {
        println!("no paradox-rich single-value subsets at these thresholds");
    } else {
        println!("paradox-rich subsets to explore (fresh local itemsets):");
        for r in &advice.ranges {
            println!(
                "  {:<24} {:>7} records  {:>6} fresh",
                r.label, r.subset_size, r.fresh_local_cfis
            );
        }
    }
    Ok(())
}
