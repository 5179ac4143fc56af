//! Server lifecycle over real sockets: graceful drain joins every
//! transport thread, reload swaps snapshot generations without
//! dropping in-flight work, and sessions stay pinned to the snapshot
//! they were created on.
//!
//! Thread accounting counts only transport threads, by name, and the
//! tests that start a server take a file-local lock, so each count sees
//! exactly one server however the harness schedules the tests.

use colarm::data::synth::{generate, SynthConfig};
use colarm::data::{AttributeId, RangeSpec};
use colarm::{
    Colarm, ColarmServer, LocalizedQuery, MipIndexConfig, QueryRequest, Semantics, ServerConfig,
    ServerHandle, TransportConfig, DEFAULT_INDEX,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Held by every test in this file that starts a server, so at most one
/// server's transport is alive in the process at a time.
static ONE_SERVER: Mutex<()> = Mutex::new(());

/// Take the one-server lock. A test that panicked while holding it
/// poisons it; the guarded state is `()`, so later tests proceed.
fn one_server() -> MutexGuard<'static, ()> {
    ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn system(seed: u64) -> Arc<Colarm> {
    let dataset = generate(&SynthConfig {
        name: format!("lifecycle-{seed}"),
        seed,
        records: 70,
        domains: vec![3, 4, 2, 5],
        top_mass: 0.55,
        skew: 1.0,
        clusters: 2,
        cluster_focus: 0.6,
        focus_strength: 0.9,
        templates: 3,
        template_len: 3,
        template_prob: 0.3,
    });
    Colarm::build(
        dataset,
        MipIndexConfig {
            primary_support: 0.1,
            ..Default::default()
        },
    )
    .expect("index builds")
    .into_shared()
}

fn serve(server: &Arc<ColarmServer>, workers: usize) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    server
        .serve_listener_with(
            listener,
            TransportConfig {
                workers,
                ..TransportConfig::default()
            },
        )
        .expect("transport starts")
}

/// One full HTTP/1.1 exchange on a fresh connection.
fn http(handle: &ServerHandle, method: &str, path: &str, body: &str) -> (u16, serde_json::Value) {
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let json_body = raw.split("\r\n\r\n").nth(1).expect("body present");
    (status, serde_json::from_str(json_body).expect("JSON body"))
}

fn query_body(semantics: Semantics) -> String {
    let query = LocalizedQuery::builder()
        .range(RangeSpec::all().with(AttributeId(0), vec![0u16, 1]))
        .minsupp(0.3)
        .minconf(0.5)
        .semantics(semantics)
        .build()
        .expect("valid query");
    serde_json::to_string(&QueryRequest::query(&query)).expect("serializes")
}

/// Kernel task flag set once a thread has entered `exit` (`PF_EXITING`).
const PF_EXITING: u64 = 0x4;

/// Live transport threads of this process: the acceptor
/// (`colarm-http-accept`) and the workers (`colarm-http-w{i}`), matched
/// by the `comm` name in each `/proc/self/task/*/stat` (the kernel keeps
/// the first 15 bytes of a name, so the shared prefix is matched).
/// A thread counts until it enters `exit`: a joined thread has always
/// done so, but its `/proc` entry can outlive `join` by a few ms.
/// `None` where `/proc` is unavailable.
fn transport_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("stat")).ok())
            .filter(|stat| {
                // `tid (comm) state ppid pgrp session tty tpgid flags ...`
                let Some((head, tail)) = stat.rsplit_once(')') else {
                    return false;
                };
                let transport = head
                    .split_once('(')
                    .is_some_and(|(_, comm)| comm.starts_with("colarm-http-"));
                let flags: u64 = tail
                    .split_whitespace()
                    .nth(6)
                    .and_then(|f| f.parse().ok())
                    .unwrap_or(PF_EXITING);
                transport && flags & PF_EXITING == 0
            })
            .count(),
    )
}

/// [`transport_threads`] once it reaches `expected`, or the last count
/// seen after 5 s. A thread takes its name only once it runs, so a read
/// right after `serve` can lag; a missing thread never arrives.
fn transport_threads_reaching(expected: usize) -> Option<usize> {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let live = transport_threads()?;
        if live == expected || std::time::Instant::now() >= deadline {
            return Some(live);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn shutdown_joins_every_transport_thread() {
    let _one = one_server();
    let server = ColarmServer::new(system(1), ServerConfig::default());
    let handle = serve(&server, 4);
    // Acceptor + 4 workers are live, and no other server's (only
    // asserted where /proc exists).
    if let Some(live) = transport_threads_reaching(5) {
        assert_eq!(live, 5, "transport threads missing");
    }
    assert_eq!(http(&handle, "GET", "/health", "").0, 200);
    handle.shutdown();
    // Joins are synchronous: the count is back immediately.
    if let Some(live) = transport_threads() {
        assert_eq!(live, 0, "transport leaked threads");
    }
}

#[test]
fn dropping_the_handle_also_drains() {
    let _one = one_server();
    let server = ColarmServer::new(system(2), ServerConfig::default());
    {
        let handle = serve(&server, 2);
        if let Some(live) = transport_threads_reaching(3) {
            assert_eq!(live, 3, "transport threads missing");
        }
        assert_eq!(http(&handle, "GET", "/health", "").0, 200);
    }
    if let Some(live) = transport_threads() {
        assert_eq!(live, 0, "drop did not join the transport");
    }
}

#[test]
fn an_in_flight_request_finishes_during_drain() {
    let _one = one_server();
    let server = ColarmServer::new(system(3), ServerConfig::default());
    let handle = serve(&server, 2);
    let body = query_body(Semantics::Strict);
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    write!(
        stream,
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request writes");
    // Give the worker a moment to pick the request up, then drain.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();
    let mut raw = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The request completes — either answered just before the drain
    // kicked in (keep-alive, then closed as idle) or during it (the
    // response then carries `Connection: close`). Either way the drain
    // closes the socket, so read-to-EOF terminates with the answer.
    stream.read_to_string(&mut raw).expect("drain answers");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
}

#[test]
fn reload_swaps_generations_and_pins_live_sessions_to_their_snapshot() {
    let _one = one_server();
    let old = system(10);
    let new = system(11); // different seed → different rules
    let server = ColarmServer::new(old.clone(), ServerConfig::default());
    let handle = serve(&server, 2);
    let body = query_body(Semantics::Unrestricted);

    // A session created on generation 1.
    let (status, _) = http(&handle, "POST", "/sessions", r#"{"id": "pinned"}"#);
    assert_eq!(status, 201);
    let (status, before) = http(&handle, "POST", "/sessions/pinned/query", &body);
    assert_eq!(status, 200, "{before}");

    // Reload: generation 2 serves new one-shot queries immediately.
    assert_eq!(server.reload_index(DEFAULT_INDEX, new.clone()), Some(2));
    let (status, one_shot) = http(&handle, "POST", "/query", &body);
    assert_eq!(status, 200);
    let request: QueryRequest = serde_json::from_str(&body).unwrap();
    let expected_new = new.run(&request).expect("in-process on new snapshot");
    assert_eq!(
        one_shot["rules"],
        serde_json::to_value(&expected_new.rules).unwrap(),
        "one-shot queries must route to the new generation"
    );

    // The live session still answers from the old snapshot, identically
    // to before the reload — zero disruption mid-drill-down.
    let (status, after) = http(&handle, "POST", "/sessions/pinned/query", &body);
    assert_eq!(status, 200);
    assert_eq!(before["rules"], after["rules"], "session switched snapshots");
    let expected_old = old.run(&request).expect("in-process on old snapshot");
    assert_eq!(
        after["rules"],
        serde_json::to_value(&expected_old.rules).unwrap()
    );

    // The old-generation session is visible as stale in /stats.
    let (_, stats) = http(&handle, "GET", "/stats", "");
    let summary = &stats["indexes"][DEFAULT_INDEX];
    assert_eq!(summary["generation"].as_u64(), Some(2));
    assert_eq!(summary["stale_sessions"].as_u64(), Some(1));
    handle.shutdown();
}

#[test]
fn reload_under_concurrent_load_drops_nothing() {
    let _one = one_server();
    let server = ColarmServer::new(system(20), ServerConfig::default());
    let handle = Arc::new(serve(&server, 4));
    let body = Arc::new(query_body(Semantics::Strict));

    // 6 clients hammer one-shot queries while the snapshot reloads
    // twice mid-stream; every request must complete with 200 (the
    // answers legitimately differ across generations).
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let handle = handle.clone();
            let body = body.clone();
            std::thread::spawn(move || {
                let mut ok = 0u32;
                for _ in 0..10 {
                    let (status, response) = http(&handle, "POST", "/query", &body);
                    assert_eq!(status, 200, "dropped under reload: {response}");
                    ok += 1;
                }
                ok
            })
        })
        .collect();
    for round in 0..2u64 {
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            server.reload_index(DEFAULT_INDEX, system(21 + round)),
            Some(2 + round)
        );
    }
    let total: u32 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    assert_eq!(total, 60);
    let generation = server.index_generation(DEFAULT_INDEX);
    assert_eq!(generation, Some(3));
    Arc::try_unwrap(handle)
        .unwrap_or_else(|_| panic!("clients hold the handle"))
        .shutdown();
}
