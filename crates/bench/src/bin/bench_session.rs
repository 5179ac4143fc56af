//! Session drill-down benchmark: a synthetic 8-query refinement chain
//! (the COLARM exploration workload) executed three ways at each thread
//! count:
//!
//! 1. **Baseline** — the pre-pool, pre-reuse system: every parallel
//!    region on freshly spawned scoped threads
//!    ([`colarm::data::par::set_scoped_executor`]), every query resolving
//!    its subset and scanning its columns from scratch.
//! 2. **Pooled + fresh** — persistent worker pool, caches still disabled
//!    (isolates the pool's contribution).
//! 3. **Pooled + derived** — the full path: pool plus a caching
//!    [`QuerySession`] deriving subsets and restricted columns from the
//!    previous query.
//!
//! Also micro-benchmarks the persistent pool against the per-call
//! `std::thread::scope` executor it replaced on many small regions.
//! Writes `BENCH_session.json`.
//!
//! ```text
//! cargo run --release --bin bench_session [-- OUT.json]
//! ```
//!
//! The acceptance gate this file documents: `speedup_vs_baseline >= 1.5`
//! on the 8-query chain at 8 threads. All three configurations must agree
//! on every query's rules, which this binary asserts on every run.

use colarm::data::par::set_scoped_executor;
use colarm::data::synth::{generate, SynthConfig};
use colarm::data::{AttributeId, RangeSpec};
use colarm::mine::rules::Rule;
use colarm::{
    Colarm, LocalizedQuery, MipIndexConfig, QueryRequest, QuerySession, Semantics, SessionConfig,
};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const MINSUPP: f64 = 0.75;
const MINCONF: f64 = 0.6;

/// Interactive scale: small focal universe, wide schema. 16 attributes
/// put the restricted scans over the 64-column parallelism threshold, so
/// SELECT runs as a parallel region the way it does on real wide tables.
fn dataset() -> colarm::data::Dataset {
    generate(&SynthConfig {
        name: "session-chain".into(),
        seed: 4242,
        records: 10_000,
        domains: vec![5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4],
        top_mass: 0.6,
        skew: 1.0,
        clusters: 3,
        cluster_focus: 0.5,
        focus_strength: 0.9,
        templates: 4,
        template_len: 3,
        template_prob: 0.3,
    })
}

/// The 8-query drill-down chain: step `i` constrains one more attribute
/// on top of step `i − 1`'s spec, keeping the most popular value(s) so
/// the subsets decay geometrically but never empty. Unrestricted
/// semantics forces the ARM plan, so SELECT — the operator the column
/// cache serves — runs at every step.
fn chain() -> Vec<LocalizedQuery> {
    let keeps: [&[u16]; 8] = [&[0], &[0], &[0], &[0], &[0, 1], &[0], &[0, 1], &[0]];
    (1..=keeps.len())
        .map(|depth| {
            let mut range = RangeSpec::all();
            for (i, keep) in keeps[..depth].iter().enumerate() {
                range = range.with(AttributeId(i as u16), keep.iter().copied());
            }
            LocalizedQuery::builder()
                .range(range)
                .minsupp(MINSUPP)
                .minconf(MINCONF)
                .semantics(Semantics::Unrestricted)
                .build()
                .expect("valid query")
        })
        .collect()
}

/// Run the whole chain through one session. `reuse = false` zeroes every
/// cache bound, so each query resolves its subset and scans its columns
/// from scratch — the pre-session per-query baseline.
fn run_chain(
    colarm: &Arc<Colarm>,
    chain: &[LocalizedQuery],
    threads: usize,
    reuse: bool,
) -> Vec<Vec<Rule>> {
    let config = if reuse {
        SessionConfig::default()
    } else {
        SessionConfig {
            max_answers: 0,
            max_subsets: 0,
            max_columns: 0,
        }
    };
    let session = QuerySession::with_config(colarm.clone(), config);
    session.set_threads(threads);
    chain
        .iter()
        .map(|q| session.run(&QueryRequest::query(q)).expect("chain query runs").rules)
        .collect()
}

/// Best of `reps` wall-clock timings of `f`.
fn best_of<T, F: FnMut() -> T>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// A small CPU-bound map — region setup overhead dominates, which is
/// exactly what the persistent pool is meant to eliminate.
fn region_workload(items: &[u64], threads: usize) -> u64 {
    colarm::data::par::parallel_map(items, threads, |_, &x| {
        let mut v = x;
        for _ in 0..200 {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        v
    })
    .iter()
    .fold(0u64, |a, &b| a ^ b)
}

#[derive(Serialize)]
struct ChainRow {
    threads: usize,
    /// PR 4 semantics: scoped threads per region, every cache disabled.
    baseline_scoped_fresh_s: f64,
    /// Persistent pool, caches still disabled.
    pooled_fresh_s: f64,
    /// Persistent pool + caching session (subsets + columns derived).
    pooled_derived_s: f64,
    /// baseline / (pooled + derived) — the headline number.
    speedup_vs_baseline: f64,
    /// pooled_fresh / pooled_derived — reuse contribution alone.
    speedup_reuse_only: f64,
    /// baseline / pooled_fresh — pool contribution alone.
    speedup_pool_only: f64,
}

#[derive(Serialize)]
struct PoolRow {
    threads: usize,
    regions: usize,
    items_per_region: usize,
    /// Per-call `std::thread::scope` reference executor.
    scoped_s: f64,
    /// Persistent pool (`par::parallel_map`).
    pooled_s: f64,
    /// scoped / pooled (>1 = pool wins).
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    description: &'static str,
    budget: &'static str,
    harness: String,
    records: usize,
    chain_len: usize,
    minsupp: f64,
    minconf: f64,
    subset_sizes: Vec<usize>,
    rules_per_query: Vec<usize>,
    reps: usize,
    chain: Vec<ChainRow>,
    pool_microbench: Vec<PoolRow>,
    pool_stats: colarm::PoolStats,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_session.json".to_string());
    let colarm = Colarm::build(
        dataset(),
        MipIndexConfig {
            primary_support: 0.05,
            ..Default::default()
        },
    )
    .expect("index builds")
    .into_shared();
    let chain = chain();
    let subset_sizes: Vec<usize> = chain
        .iter()
        .map(|q| {
            colarm
                .index()
                .resolve_subset(q.range.clone())
                .expect("resolves")
                .len()
        })
        .collect();
    assert!(
        subset_sizes.iter().all(|&s| s > 0),
        "chain must stay non-empty: {subset_sizes:?}"
    );

    let reps = 9;
    let mut rows = Vec::new();
    for &threads in &[1usize, 2, 8] {
        // Equivalence first: neither the executor nor reuse may change
        // any answer.
        let derived = run_chain(&colarm, &chain, threads, true);
        let fresh = run_chain(&colarm, &chain, threads, false);
        set_scoped_executor(true);
        let scoped_fresh = run_chain(&colarm, &chain, threads, false);
        set_scoped_executor(false);
        assert_eq!(derived, fresh, "reuse changed answers at {threads} threads");
        assert_eq!(
            scoped_fresh, fresh,
            "executor changed answers at {threads} threads"
        );
        set_scoped_executor(true);
        let baseline_scoped_fresh_s =
            best_of(reps, || run_chain(&colarm, &chain, threads, false));
        set_scoped_executor(false);
        let pooled_fresh_s = best_of(reps, || run_chain(&colarm, &chain, threads, false));
        let pooled_derived_s = best_of(reps, || run_chain(&colarm, &chain, threads, true));
        rows.push(ChainRow {
            threads,
            baseline_scoped_fresh_s,
            pooled_fresh_s,
            pooled_derived_s,
            speedup_vs_baseline: baseline_scoped_fresh_s / pooled_derived_s,
            speedup_reuse_only: pooled_fresh_s / pooled_derived_s,
            speedup_pool_only: baseline_scoped_fresh_s / pooled_fresh_s,
        });
    }
    let rules_per_query: Vec<usize> = run_chain(&colarm, &chain, 1, true)
        .iter()
        .map(|r| r.len())
        .collect();

    // Pool microbench: many small regions, where spawn/join overhead is
    // the whole story. Same `parallel_map` both sides; only the executor
    // switch differs.
    let items: Vec<u64> = (0..256u64).collect();
    let regions = 500;
    let mut pool_rows = Vec::new();
    for &threads in &[2usize, 8] {
        let pooled_once = region_workload(&items, threads);
        set_scoped_executor(true);
        let scoped_once = region_workload(&items, threads);
        set_scoped_executor(false);
        assert_eq!(pooled_once, scoped_once, "executors diverged");
        let pooled_s = best_of(3, || {
            (0..regions).fold(0u64, |a, _| a ^ region_workload(&items, threads))
        });
        set_scoped_executor(true);
        let scoped_s = best_of(3, || {
            (0..regions).fold(0u64, |a, _| a ^ region_workload(&items, threads))
        });
        set_scoped_executor(false);
        pool_rows.push(PoolRow {
            threads,
            regions,
            items_per_region: items.len(),
            scoped_s,
            pooled_s,
            speedup: scoped_s / pooled_s,
        });
    }

    let report = Report {
        description: "8-query drill-down chain: the pre-pool baseline (per-region \
                      scoped threads, every query resolved and scanned fresh) vs \
                      the persistent worker pool with subsets + restricted columns \
                      derived from the previous query through a caching \
                      QuerySession; plus pool vs per-call thread::scope on small \
                      regions",
        budget: "chain speedup_vs_baseline >= 1.5 at 8 threads (scoped threads + \
                 fresh scans vs pooled + derived)",
        harness: "cargo run --release --bin bench_session".to_string(),
        records: colarm.index().dataset().num_records(),
        chain_len: chain.len(),
        minsupp: MINSUPP,
        minconf: MINCONF,
        subset_sizes,
        rules_per_query,
        reps,
        chain: rows,
        pool_microbench: pool_rows,
        pool_stats: colarm::pool_stats(),
    };
    for r in &report.chain {
        println!(
            "chain @ {} threads: baseline {:.4}s, pooled+fresh {:.4}s, pooled+derived \
             {:.4}s | vs baseline {:.2}x (reuse {:.2}x, pool {:.2}x)",
            r.threads,
            r.baseline_scoped_fresh_s,
            r.pooled_fresh_s,
            r.pooled_derived_s,
            r.speedup_vs_baseline,
            r.speedup_reuse_only,
            r.speedup_pool_only
        );
    }
    for r in &report.pool_microbench {
        println!(
            "pool @ {} threads × {} regions: scoped {:.4}s, pooled {:.4}s, speedup {:.2}x",
            r.threads, r.regions, r.scoped_s, r.pooled_s, r.speedup
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("report written");
    println!("wrote {out_path}");
}
