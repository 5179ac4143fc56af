//! The operator engine is a pure refactor of the plan executor: for every
//! plan, every dataset, and every thread count, `engine::execute` must
//! produce **bit-identical** rules, traces, and metrics to the pre-engine
//! wiring — the hand-written pipelines of `ops::` free functions this
//! suite reproduces verbatim. Cancellation is
//! the engine's one new behaviour: a deadline/budget/token stop surfaces
//! as `ColarmError::Canceled` naming the operator, never a panic or a
//! partial answer.

use colarm::data::synth::{generate, salary, SynthConfig};
use colarm::data::FocalSubset;
use colarm::mine::rules::Rule;
use colarm::engine;
use colarm::ops::{self, ExecOptions, OpTrace};
use colarm::{
    ColarmError, LocalizedQuery, MipIndex, MipIndexConfig, OpKind, PlanKind, QueryLimits,
};
use std::time::Duration;

/// The pre-engine executor, reproduced exactly: the six hand-wired
/// pipelines over the public `ops::` free functions, then the shared
/// rule-ordering epilogue. This is the ground truth the engine must match
/// bit for bit.
fn reference_execute(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    plan: PlanKind,
    opts: ExecOptions,
) -> (Vec<Rule>, Vec<OpTrace>) {
    let minsupp_count = query.minsupp_count(subset.len());
    let minconf = query.minconf;
    let mut traces = Vec::new();
    let mut rules = match plan {
        PlanKind::Sev => {
            let (cands, t) = ops::search(index, subset);
            traces.push(t);
            let (kept, t) = ops::eliminate(index, query, subset, cands, minsupp_count, opts);
            traces.push(t);
            let (rules, t) = ops::verify(index, subset, &kept, minconf, opts);
            traces.push(t);
            rules
        }
        PlanKind::Svs => {
            let (cands, t) = ops::search(index, subset);
            traces.push(t);
            let (rules, t) = ops::supported_verify(
                index, query, subset, cands, minsupp_count, minconf, opts,
            );
            traces.push(t);
            rules
        }
        PlanKind::SsEv => {
            let (cands, t) = ops::supported_search(index, subset, minsupp_count);
            traces.push(t);
            let (kept, t) = ops::eliminate(index, query, subset, cands, minsupp_count, opts);
            traces.push(t);
            let (rules, t) = ops::verify(index, subset, &kept, minconf, opts);
            traces.push(t);
            rules
        }
        PlanKind::SsVs => {
            let (cands, t) = ops::supported_search(index, subset, minsupp_count);
            traces.push(t);
            let (rules, t) = ops::supported_verify(
                index, query, subset, cands, minsupp_count, minconf, opts,
            );
            traces.push(t);
            rules
        }
        PlanKind::SsEuv => {
            let (cands, t) = ops::supported_search(index, subset, minsupp_count);
            traces.push(t);
            let (contained, partial, t) = ops::classify(index, query, subset, cands);
            traces.push(t);
            let (kept_partial, t) =
                ops::eliminate_projected(index, subset, partial, minsupp_count, opts);
            traces.push(t);
            let (merged, t) = ops::union_lists(contained, kept_partial);
            traces.push(t);
            let (rules, t) = ops::verify(index, subset, &merged, minconf, opts);
            traces.push(t);
            rules
        }
        PlanKind::Arm => {
            let (columns, t) = ops::select(index, query, subset, opts);
            traces.push(t);
            let (rules, t) =
                ops::arm(index, query, subset, &columns, minsupp_count, minconf, opts);
            traces.push(t);
            rules
        }
    };
    rules.sort_by(|a, b| (&a.antecedent, &a.consequent).cmp(&(&b.antecedent, &b.consequent)));
    (rules, traces)
}

/// Engine output vs the reference path: rules equal, and every trace
/// identical in everything but wall-clock duration — operator kind,
/// cardinalities, unit bits, and the full counter block.
fn assert_engine_matches_reference(
    index: &MipIndex,
    query: &LocalizedQuery,
    subset: &FocalSubset,
    plan: PlanKind,
    threads: usize,
    label: &str,
) {
    let opts = ExecOptions::with_threads(threads).with_metrics(true);
    let engine =
        engine::execute(index, query, subset, plan, opts, &QueryLimits::none(), None).unwrap();
    let (ref_rules, ref_traces) = reference_execute(index, query, subset, plan, opts);
    assert_eq!(
        engine.rules, ref_rules,
        "{label}: {plan} rules diverged at {threads} threads"
    );
    assert_eq!(
        engine.trace.ops.len(),
        ref_traces.len(),
        "{label}: {plan} trace shape diverged"
    );
    let mut ref_units = 0.0;
    for (e, r) in engine.trace.ops.iter().zip(&ref_traces) {
        let at = format!("{label}: {plan}/{} at {threads} threads", r.kind);
        assert_eq!(e.kind, r.kind, "{at}");
        assert_eq!(e.input, r.input, "{at}: input");
        assert_eq!(e.output, r.output, "{at}: output");
        assert_eq!(
            e.units.to_bits(),
            r.units.to_bits(),
            "{at}: unit accounting drifted ({} vs {})",
            e.units,
            r.units
        );
        assert_eq!(e.metrics, r.metrics, "{at}: counters drifted");
        ref_units += r.units;
    }
    assert_eq!(
        engine.trace.total_units().to_bits(),
        ref_units.to_bits(),
        "{label}: {plan} total_units drifted"
    );
}

fn salary_setup() -> (MipIndex, Vec<LocalizedQuery>) {
    let index = MipIndex::build(
        salary(),
        MipIndexConfig {
            primary_support: 2.0 / 11.0,
            ..Default::default()
        },
    )
    .unwrap();
    let schema = index.dataset().schema().clone();
    let queries = vec![
        // The paper's §1.1 walkthrough: female employees in Seattle.
        LocalizedQuery::builder()
            .range_named(&schema, "Location", &["Seattle"])
            .unwrap()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .minsupp(0.75)
            .minconf(0.9)
            .build()
            .unwrap(),
        // A looser query over a single-attribute range.
        LocalizedQuery::builder()
            .range_named(&schema, "Gender", &["F"])
            .unwrap()
            .minsupp(0.5)
            .minconf(0.7)
            .build()
            .unwrap(),
    ];
    (index, queries)
}

fn synth_setup() -> (MipIndex, Vec<LocalizedQuery>) {
    let dataset = generate(&SynthConfig {
        name: "engine-eq".into(),
        seed: 23,
        records: 500,
        domains: vec![3, 3, 4, 2, 3],
        top_mass: 0.6,
        skew: 1.0,
        clusters: 2,
        cluster_focus: 0.5,
        focus_strength: 0.9,
        templates: 3,
        template_len: 3,
        template_prob: 0.3,
    });
    let index = MipIndex::build(
        dataset,
        MipIndexConfig {
            primary_support: 0.02,
            ..Default::default()
        },
    )
    .unwrap();
    let schema = index.dataset().schema().clone();
    let queries = vec![
        LocalizedQuery::builder()
            .range_named(&schema, "a0", &["v0"])
            .unwrap()
            .minsupp(0.05)
            .minconf(0.5)
            .build()
            .unwrap(),
        // Item-attribute restriction exercises the projection/dedup path.
        LocalizedQuery::builder()
            .range_named(&schema, "a1", &["v0", "v1"])
            .unwrap()
            .item_attrs_named(&schema, &["a2", "a3", "a4"])
            .unwrap()
            .minsupp(0.1)
            .minconf(0.6)
            .build()
            .unwrap(),
    ];
    (index, queries)
}

#[test]
fn engine_matches_reference_on_salary_walkthrough() {
    let (index, queries) = salary_setup();
    for query in &queries {
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        for plan in PlanKind::ALL {
            for threads in [1, 2, 8] {
                assert_engine_matches_reference(&index, query, &subset, plan, threads, "salary");
            }
        }
    }
}

#[test]
fn engine_matches_reference_on_synth_dataset() {
    let (index, queries) = synth_setup();
    for query in &queries {
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        for plan in PlanKind::ALL {
            for threads in [1, 2, 8] {
                assert_engine_matches_reference(&index, query, &subset, plan, threads, "synth");
            }
        }
    }
}

#[test]
fn zero_deadline_cancels_every_plan_before_its_first_operator() {
    let (index, queries) = salary_setup();
    let query = &queries[0];
    let subset = index.resolve_subset(query.range.clone()).unwrap();
    for plan in PlanKind::ALL {
        let limits = QueryLimits::none().with_timeout(Duration::ZERO);
        let err = engine::execute(
            &index,
            query,
            &subset,
            plan,
            ExecOptions::default(),
            &limits,
            None,
        )
        .unwrap_err();
        match err {
            ColarmError::Canceled { after_units, op } => {
                assert_eq!(after_units, 0.0, "{plan}: nothing ran, nothing charged");
                let first = match plan {
                    PlanKind::Sev | PlanKind::Svs => OpKind::Search,
                    PlanKind::SsEv | PlanKind::SsVs | PlanKind::SsEuv => OpKind::SupportedSearch,
                    PlanKind::Arm => OpKind::Select,
                };
                assert_eq!(op, first, "{plan}: canceled in its first operator");
            }
            other => panic!("{plan}: expected Canceled, got {other:?}"),
        }
    }
}

#[test]
fn canceled_executions_report_consistent_spent_units() {
    // A budget below SEARCH's node-visit charge: the Sev pipeline cancels
    // before ELIMINATE, and the reported spend equals SEARCH's units.
    let (index, queries) = salary_setup();
    let query = &queries[0];
    let subset = index.resolve_subset(query.range.clone()).unwrap();
    let (_, search_trace) = ops::search(&index, &subset);
    let limits = QueryLimits::none().with_budget_units(search_trace.units - 0.5);
    let err = engine::execute(
        &index,
        query,
        &subset,
        PlanKind::Sev,
        ExecOptions::default(),
        &limits,
        None,
    )
    .unwrap_err();
    match err {
        ColarmError::Canceled { after_units, op } => {
            assert_eq!(op, OpKind::Eliminate);
            assert_eq!(after_units.to_bits(), search_trace.units.to_bits());
        }
        other => panic!("expected Canceled, got {other:?}"),
    }
}
