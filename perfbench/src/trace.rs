//! The traced run's layer breakdown. Nothing inside the program is
//! instrumented: after each HTTP answer, the client thread repeats the
//! request's work layer by layer through the crates' public functions and
//! times each call.

use crate::client::Reply;
use crate::workload::StreamQuery;
use colarm::ops::OpKind;
use colarm::{
    execute_plan, Colarm, ColarmServer, PlanKind, QueryOutcome, QuerySession, Semantics,
    SessionStats,
};
use std::sync::Arc;
use std::time::Instant;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Sums over the traced queries.
#[derive(Default)]
pub struct Layers {
    pub queries: u64,
    pub decode_us: f64,
    pub encode_us: f64,
    pub bytes: f64,
    pub rules: f64,
    pub resolve_us: f64,
    pub subset_records: f64,
    pub choose_us: f64,
    pub picks: [u64; 6],
    pub execute_us: f64,
    /// Per operator (in [`OpKind::ALL`] order): µs, input, output.
    pub ops: [[f64; 3]; 9],
    pub session_runs: u64,
    pub session_run_us: f64,
    pub session: SessionStats,
    pub handle_us: f64,
    pub rtt_us: f64,
    pub creates: u64,
    pub create_us: f64,
    pub evicts: u64,
    pub evict_us: f64,
    /// Σ of the timed layer calls that together make up one served query.
    pub covered_us: f64,
}

fn add_stats(a: &mut SessionStats, b: &SessionStats) {
    a.subset_hits += b.subset_hits;
    a.subset_misses += b.subset_misses;
    a.subset_evictions += b.subset_evictions;
    a.answer_hits += b.answer_hits;
    a.answer_misses += b.answer_misses;
    a.answer_evictions += b.answer_evictions;
    a.subsets_derived += b.subsets_derived;
    a.column_hits += b.column_hits;
    a.column_misses += b.column_misses;
    a.columns_derived += b.columns_derived;
    a.column_evictions += b.column_evictions;
}

/// One client's tracer. For drill-down rounds it keeps an in-process
/// mirror of the HTTP session: a [`QuerySession`] for `session.*` and a
/// server-side session for `server.handle_us`.
pub struct Tracer {
    colarm: Arc<Colarm>,
    server: Arc<ColarmServer>,
    pub layers: Layers,
    mirror: Option<(String, QuerySession)>,
}

impl Tracer {
    pub fn new(colarm: Arc<Colarm>, server: Arc<ColarmServer>) -> Tracer {
        Tracer {
            colarm,
            server,
            layers: Layers::default(),
            mirror: None,
        }
    }

    /// Open the mirror of a drill-down session.
    pub fn session_created(&mut self, id: String) {
        let body = serde_json::to_string(&serde_json::json!({ "id": id })).expect("id encodes");
        let t = Instant::now();
        let created = self.server.handle("POST", "/sessions", body.as_bytes());
        self.layers.create_us += us_since(t);
        self.layers.creates += 1;
        assert_eq!(
            created.status, 201,
            "mirror session create: {}",
            created.body
        );
        let session = QuerySession::with_config(self.colarm.clone(), self.server.config().session);
        self.mirror = Some((id, session));
    }

    /// Close the mirror session, folding its cache statistics in.
    pub fn session_evicted(&mut self) {
        let Some((id, session)) = self.mirror.take() else {
            return;
        };
        let t = Instant::now();
        let evicted = self
            .server
            .handle("DELETE", &format!("/sessions/{id}"), b"");
        self.layers.evict_us += us_since(t);
        self.layers.evicts += 1;
        assert_eq!(
            evicted.status, 200,
            "mirror session evict: {}",
            evicted.body
        );
        add_stats(&mut self.layers.session, &session.stats());
    }

    /// Break one answered query down by layer. The calls run in serving
    /// order with the client-side decode last, so the large allocations
    /// of decoding a big answer do not slow the server-side calls.
    pub fn query(&mut self, q: &StreamQuery, reply: &Reply) {
        let l = &mut self.layers;
        let path = match &self.mirror {
            Some((id, _)) => format!("/sessions/{id}/query"),
            None => "/query".to_string(),
        };
        let t = Instant::now();
        let handled = self.server.handle("POST", &path, &q.body);
        let handle_us = us_since(t);
        assert_eq!(handled.status, 200, "in-process handle: {}", handled.body);
        drop(handled);

        let index = self.colarm.index();
        let t = Instant::now();
        let subset = index
            .resolve_subset(q.query.range.clone())
            .expect("stream regions resolve");
        let resolve_us = us_since(t);

        let t = Instant::now();
        let choice = self.colarm.optimizer().choose(index, &q.query, &subset);
        let choose_us = us_since(t);
        // The served plan: Unrestricted queries are forced onto ARM, as
        // `Colarm::run` does.
        let plan = match q.query.semantics {
            Semantics::Unrestricted => PlanKind::Arm,
            Semantics::Strict => choice.chosen,
        };

        let t = Instant::now();
        let answer = execute_plan(index, &q.query, &subset, plan).expect("served plan executes");
        let execute_us = us_since(t);
        for op in &answer.trace.ops {
            let k = OpKind::ALL
                .iter()
                .position(|&o| o == op.kind)
                .expect("known operator");
            l.ops[k][0] += op.duration.as_secs_f64() * 1e6;
            l.ops[k][1] += op.input as f64;
            l.ops[k][2] += op.output as f64;
        }
        let pick = PlanKind::ALL
            .iter()
            .position(|&p| p == choice.chosen)
            .expect("known plan");
        l.picks[pick] += 1;

        // The server's encode path: outcome → JSON value → text.
        let outcome = QueryOutcome {
            plan,
            subset_size: answer.subset_size,
            rules: answer.rules,
            choice: Some(choice),
            trace: None,
            analyze: None,
            session: None,
        };
        let t = Instant::now();
        let encoded = serde_json::to_string(&serde_json::json!(outcome)).expect("outcome encodes");
        let encode_us = us_since(t);
        drop((encoded, outcome));

        let executed_us = match &self.mirror {
            Some((_, session)) => {
                let t = Instant::now();
                session.run(&q.request).expect("mirror session runs");
                let run_us = us_since(t);
                l.session_runs += 1;
                l.session_run_us += run_us;
                run_us
            }
            None => resolve_us + choose_us + execute_us,
        };

        let t = Instant::now();
        let Some(served) = std::str::from_utf8(&reply.body)
            .ok()
            .and_then(|text| serde_json::from_str::<QueryOutcome>(text).ok())
        else {
            return;
        };
        l.decode_us += us_since(t);
        assert_eq!(served.plan, plan, "served plan differs from the traced one");
        l.queries += 1;
        l.handle_us += handle_us;
        l.rtt_us += reply.latency.as_secs_f64() * 1e6;
        l.bytes += reply.body.len() as f64;
        l.rules += served.rules.len() as f64;
        l.resolve_us += resolve_us;
        l.subset_records += subset.len() as f64;
        l.choose_us += choose_us;
        l.execute_us += execute_us;
        l.encode_us += encode_us;
        l.covered_us += executed_us + encode_us;
    }
}
