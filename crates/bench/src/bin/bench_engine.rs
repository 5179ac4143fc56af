//! Engine-dispatch benchmark: the streaming operator engine
//! (`engine::execute`, batched `PlanOp` pipeline with per-batch
//! cancellation checks) against the hand-wired free-function pipelines it
//! replaced, per plan, on the Table 1 salary dataset and the mushroom
//! analog. Writes `BENCH_engine.json`.
//!
//! ```text
//! cargo run --release --bin bench_engine [-- OUT.json]
//! ```
//!
//! The acceptance gate this file documents: engine overhead ≤5% on the
//! salary end-to-end walkthrough (the worst case for dispatch overhead —
//! eleven records, so fixed costs dominate). Both paths must also agree
//! on rules and unit totals, which this binary asserts on every run.

use colarm::engine;
use colarm::mine::rules::Rule;
use colarm::ops::{self, ExecOptions};
use colarm::{LocalizedQuery, MipIndex, MipIndexConfig, PlanKind, QueryLimits};
use colarm_bench::{build_system, mushroom_spec, random_subset_spec, Scale};
use colarm_data::FocalSubset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// The pre-engine executor: the six pipelines hand-wired from the public
/// `ops::` free functions (kept as the reference path), with the shared
/// rule-ordering epilogue.
fn reference_execute(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    plan: PlanKind,
    opts: ExecOptions,
) -> Vec<Rule> {
    let minsupp_count = query.minsupp_count(subset.len());
    let minconf = query.minconf;
    let mut rules = match plan {
        PlanKind::Sev => {
            let (cands, _) = ops::search(index, subset);
            let (kept, _) = ops::eliminate(index, query, subset, cands, minsupp_count, opts);
            ops::verify(index, subset, &kept, minconf, opts).0
        }
        PlanKind::Svs => {
            let (cands, _) = ops::search(index, subset);
            ops::supported_verify(index, query, subset, cands, minsupp_count, minconf, opts).0
        }
        PlanKind::SsEv => {
            let (cands, _) = ops::supported_search(index, subset, minsupp_count);
            let (kept, _) = ops::eliminate(index, query, subset, cands, minsupp_count, opts);
            ops::verify(index, subset, &kept, minconf, opts).0
        }
        PlanKind::SsVs => {
            let (cands, _) = ops::supported_search(index, subset, minsupp_count);
            ops::supported_verify(index, query, subset, cands, minsupp_count, minconf, opts).0
        }
        PlanKind::SsEuv => {
            let (cands, _) = ops::supported_search(index, subset, minsupp_count);
            let (contained, partial, _) = ops::classify(index, query, subset, cands);
            let (kept_partial, _) =
                ops::eliminate_projected(index, subset, partial, minsupp_count, opts);
            let (merged, _) = ops::union_lists(contained, kept_partial);
            ops::verify(index, subset, &merged, minconf, opts).0
        }
        PlanKind::Arm => {
            let (columns, _) = ops::select(index, query, subset, opts);
            ops::arm(index, query, subset, &columns, minsupp_count, minconf, opts).0
        }
    };
    rules.sort_by(|a, b| (&a.antecedent, &a.consequent).cmp(&(&b.antecedent, &b.consequent)));
    rules
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

#[derive(Serialize)]
struct PlanRow {
    plan: &'static str,
    rules: usize,
    reference_s: f64,
    engine_s: f64,
    /// engine_s / reference_s − 1 (negative = engine faster).
    overhead: f64,
}

#[derive(Serialize)]
struct Scenario {
    name: &'static str,
    records: usize,
    subset_records: usize,
    reps: usize,
    plans: Vec<PlanRow>,
    /// Summed across the six plans — the end-to-end budget figure.
    end_to_end_reference_s: f64,
    end_to_end_engine_s: f64,
    end_to_end_overhead: f64,
}

#[derive(Serialize)]
struct Report {
    description: &'static str,
    budget: &'static str,
    scenarios: Vec<Scenario>,
}

fn bench(
    name: &'static str,
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    reps: usize,
) -> Scenario {
    let opts = ExecOptions::with_threads(1);
    let mut plans = Vec::new();
    for plan in PlanKind::ALL {
        let none = QueryLimits::none();
        let run_engine =
            || engine::execute(index, query, subset, plan, opts, &none, None).expect("runs");
        // Equivalence first: the benchmark is meaningless if the two
        // paths compute different answers.
        let engine_answer = run_engine();
        let ref_rules = reference_execute(index, query, subset, plan, opts);
        assert_eq!(engine_answer.rules, ref_rules, "{name}/{plan}: paths diverged");

        let reference_s = best_of(reps, || reference_execute(index, query, subset, plan, opts));
        let engine_s = best_of(reps, run_engine);
        plans.push(PlanRow {
            plan: plan.name(),
            rules: ref_rules.len(),
            reference_s,
            engine_s,
            overhead: engine_s / reference_s - 1.0,
        });
    }
    let end_to_end_reference_s: f64 = plans.iter().map(|p| p.reference_s).sum();
    let end_to_end_engine_s: f64 = plans.iter().map(|p| p.engine_s).sum();
    Scenario {
        name,
        records: index.dataset().num_records(),
        subset_records: subset.len(),
        reps,
        plans,
        end_to_end_reference_s,
        end_to_end_engine_s,
        end_to_end_overhead: end_to_end_engine_s / end_to_end_reference_s - 1.0,
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_engine.json".to_string());

    let salary_index = MipIndex::build(
        colarm_data::synth::salary(),
        MipIndexConfig {
            primary_support: 2.0 / 11.0,
            ..Default::default()
        },
    )
    .expect("salary index");
    let salary_schema = salary_index.dataset().schema().clone();
    let salary_query = LocalizedQuery::builder()
        .range_named(&salary_schema, "Location", &["Seattle"])
        .expect("known attribute")
        .range_named(&salary_schema, "Gender", &["F"])
        .expect("known attribute")
        .minsupp(0.75)
        .minconf(0.9)
        .build()
        .expect("valid query");
    let salary_subset = salary_index
        .resolve_subset(salary_query.range.clone())
        .expect("subset resolves");

    let mushroom = build_system(&mushroom_spec(Scale::Fast));
    let mut rng = StdRng::seed_from_u64(11);
    let (range, mushroom_subset) = random_subset_spec(
        mushroom.index().dataset(),
        mushroom.index().vertical(),
        0.10,
        &mut rng,
    );
    let spec = mushroom_spec(Scale::Fast);
    let mushroom_query = LocalizedQuery::builder()
        .range(range)
        .minsupp(spec.minsupps[0])
        .minconf(spec.minconf)
        .build()
        .expect("valid query");

    let report = Report {
        description: "Streaming operator engine (engine::execute) vs the \
                      hand-wired ops:: free-function pipelines, per plan, \
                      sequential execution (best of N reps)",
        budget: "end_to_end_overhead <= 0.05 on the salary scenario",
        scenarios: vec![
            bench("salary_table1", &salary_index, &salary_query, &salary_subset, 200),
            bench(
                "mushroom_fast",
                mushroom.index(),
                &mushroom_query,
                &mushroom_subset,
                5,
            ),
        ],
    };

    for s in &report.scenarios {
        println!(
            "{} ({} records, subset {}):",
            s.name, s.records, s.subset_records
        );
        println!(
            "  {:<10} {:>6} {:>14} {:>14} {:>9}",
            "plan", "rules", "reference s", "engine s", "overhead"
        );
        for p in &s.plans {
            println!(
                "  {:<10} {:>6} {:>14.6} {:>14.6} {:>8.1}%",
                p.plan,
                p.rules,
                p.reference_s,
                p.engine_s,
                p.overhead * 100.0
            );
        }
        println!(
            "  end-to-end: {:.6}s vs {:.6}s → {:+.1}%\n",
            s.end_to_end_reference_s,
            s.end_to_end_engine_s,
            s.end_to_end_overhead * 100.0
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out_path, json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
