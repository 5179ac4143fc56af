//! Cross-query drill-down reuse is invisible in answers: a session that
//! derives focal subsets and restricted columns from cached parents must
//! produce results bit-identical to a cold session that scans everything
//! fresh — same rules, same subset tidsets (including representation),
//! same per-operator unit accounting. Randomized over datasets, refinement
//! shapes, and thresholds — including every plan forced through the warm
//! session; plus a cancellation test pinning down that a canceled
//! drill-down publishes nothing into the column cache.

use colarm::data::synth::{generate, SynthConfig};
use colarm::data::{AttributeId, RangeSpec};
use colarm::{
    Colarm, ColarmError, LocalizedQuery, MipIndexConfig, PlanKind, QueryRequest, QuerySession,
    Semantics,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn small_dataset(seed: u64, records: usize) -> colarm::data::Dataset {
    generate(&SynthConfig {
        name: format!("drill-{seed}"),
        seed,
        records,
        domains: vec![3, 4, 2, 5],
        top_mass: 0.55,
        skew: 1.0,
        clusters: 2,
        cluster_focus: 0.6,
        focus_strength: 0.9,
        templates: 3,
        template_len: 3,
        template_prob: 0.3,
    })
}

fn shared(seed: u64, records: usize) -> Arc<Colarm> {
    Colarm::build(
        small_dataset(seed, records),
        MipIndexConfig {
            primary_support: 0.1,
            ..Default::default()
        },
    )
    .expect("index builds")
    .into_shared()
}

/// Unrestricted semantics forces the ARM plan, so every execution runs
/// SELECT and exercises the column cache.
fn arm_query(range: &RangeSpec, minsupp: f64) -> LocalizedQuery {
    LocalizedQuery::builder()
        .range(range.clone())
        .minsupp(minsupp)
        .minconf(0.5)
        .semantics(Semantics::Unrestricted)
        .build()
        .expect("valid query")
}

/// A plain (answer-cacheable) session request that reports its trace.
fn traced(query: &LocalizedQuery) -> QueryRequest {
    QueryRequest::query(query).with_trace(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn derived_subsets_and_answers_match_fresh_execution(
        seed in 0u64..3000,
        records in 40usize..120,
        keep0 in 1u16..3,
        keep1 in 1u16..4,
        shrink0 in proptest::bool::ANY,
        minsupp_pct in 20u32..70,
    ) {
        let colarm = shared(seed, records);
        let base_range =
            RangeSpec::all().with(AttributeId(0), (0..=keep0).collect::<Vec<_>>());
        // The refinement constrains a new attribute and optionally shrinks
        // the inherited one — both legal delta shapes.
        let refined0: Vec<u16> = if shrink0 { vec![0] } else { (0..=keep0).collect() };
        let refined_range = RangeSpec::all()
            .with(AttributeId(0), refined0)
            .with(AttributeId(1), (0..keep1).collect::<Vec<_>>());
        let fresh_refined = colarm
            .index()
            .resolve_subset(refined_range.clone())
            .expect("resolves");
        prop_assume!(!fresh_refined.is_empty());
        let minsupp = minsupp_pct as f64 / 100.0;
        let base_q = arm_query(&base_range, minsupp);
        let refined_q = arm_query(&refined_range, minsupp);

        // Warm session: base first, then the refinement — subset and
        // columns must both be served by derivation, not fresh scans.
        let warm = QuerySession::new(colarm.clone());
        warm.run(&traced(&base_q)).expect("base runs");
        let drilled = warm.run(&traced(&refined_q)).expect("refined runs");
        let stats = warm.stats();
        prop_assert_eq!(stats.subsets_derived, 1);
        prop_assert_eq!(stats.columns_derived, 1);
        prop_assert_eq!(stats.subset_misses, 1);
        prop_assert_eq!(stats.column_misses, 1);

        // The derived subset is bitwise the fresh resolution — content,
        // overall kind, AND the per-chunk container shape. Derivation
        // subtracts/intersects cached parents, so this pins down that the
        // canonical container rule is a pure function of contents, not of
        // the operation history that produced them.
        let derived_subset = warm.subset(&refined_range).expect("cached");
        prop_assert_eq!(derived_subset.tids(), fresh_refined.tids());
        prop_assert_eq!(derived_subset.tids().kind(), fresh_refined.tids().kind());
        prop_assert_eq!(derived_subset.tids().shape(), fresh_refined.tids().shape());

        // The drilled answer is bit-identical to a cold session's.
        let cold = QuerySession::new(colarm.clone());
        let fresh_answer = cold.run(&traced(&refined_q)).expect("cold runs");
        prop_assert_eq!(&drilled.rules, &fresh_answer.rules);
        prop_assert_eq!(drilled.subset_size, fresh_answer.subset_size);
        let (drilled, fresh) = (drilled.trace.unwrap(), fresh_answer.trace.unwrap());
        prop_assert_eq!(drilled.ops.len(), fresh.ops.len());
        for (a, b) in drilled.ops.iter().zip(&fresh.ops) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(
                a.units.to_bits(),
                b.units.to_bits(),
                "{} unit accounting drifted",
                a.kind
            );
        }

        // Every plan forced through the warm session (cached subset and
        // columns) answers bit-identically to the sessionless path with
        // the same plan. Strict semantics, so all six plans may run.
        let strict_q = LocalizedQuery {
            semantics: Semantics::Strict,
            ..refined_q.clone()
        };
        for plan in PlanKind::ALL {
            let request = traced(&strict_q).with_plan(plan);
            let via_session = warm.run(&request).expect("forced plan runs in the session");
            let direct = colarm.run(&request).expect("forced plan runs directly");
            prop_assert_eq!(via_session.plan, plan);
            prop_assert_eq!(direct.plan, plan);
            prop_assert_eq!(&via_session.rules, &direct.rules, "{} diverged", plan);
            prop_assert_eq!(via_session.subset_size, direct.subset_size);
            let (s, d) = (via_session.trace.unwrap(), direct.trace.unwrap());
            prop_assert_eq!(s.ops.len(), d.ops.len());
            for (a, b) in s.ops.iter().zip(&d.ops) {
                prop_assert_eq!(a.kind, b.kind);
                prop_assert_eq!(a.units.to_bits(), b.units.to_bits(), "{}/{}", plan, a.kind);
            }
        }
    }
}

/// The derived container shapes (and everything downstream of them) must
/// not depend on worker-pool width: a drill-down executed at 1, 2 and 8
/// threads produces bit-identical rules and byte-identical per-chunk
/// subset shapes to each other and to a fresh resolution.
#[test]
fn derived_shapes_are_stable_across_thread_counts() {
    let colarm = shared(7, 110);
    let base_range = RangeSpec::all().with(AttributeId(0), [0u16, 1]);
    let refined_range = RangeSpec::all()
        .with(AttributeId(0), [0u16, 1])
        .with(AttributeId(1), [0u16, 1, 2]);
    let fresh = colarm
        .index()
        .resolve_subset(refined_range.clone())
        .expect("resolves");
    let base_q = arm_query(&base_range, 0.25);
    let refined_q = arm_query(&refined_range, 0.25);
    let mut reference: Option<(Vec<_>, _)> = None;
    for threads in [1usize, 2, 8] {
        let session = QuerySession::new(colarm.clone());
        session.set_threads(threads);
        session.run(&traced(&base_q)).expect("base runs");
        let drilled = session.run(&traced(&refined_q)).expect("refined runs");
        assert_eq!(session.stats().subsets_derived, 1, "{threads} threads");
        let derived = session.subset(&refined_range).expect("cached");
        assert_eq!(derived.tids(), fresh.tids(), "{threads} threads");
        assert_eq!(
            derived.tids().shape(),
            fresh.tids().shape(),
            "container shape drifted at {threads} threads"
        );
        match &reference {
            None => reference = Some((drilled.rules.clone(), fresh.tids().shape())),
            Some((rules, shape)) => {
                assert_eq!(&drilled.rules, rules, "{threads} threads");
                assert_eq!(&derived.tids().shape(), shape, "{threads} threads");
            }
        }
    }
}

#[test]
fn canceled_drill_down_publishes_nothing_into_the_column_cache() {
    let colarm = shared(99, 80);
    let base_range = RangeSpec::all().with(AttributeId(0), [0u16, 1]);
    let refined_range = RangeSpec::all()
        .with(AttributeId(0), [0u16, 1])
        .with(AttributeId(1), [0u16, 1]);
    let base_q = arm_query(&base_range, 0.3);
    let refined_q = arm_query(&refined_range, 0.3);
    let session = QuerySession::new(colarm.clone());
    session.run(&traced(&base_q)).unwrap();
    assert_eq!(session.stats().column_misses, 1);

    // Zero deadline: the engine cancels before SELECT completes, so the
    // column store must see no publish and count no derivation.
    session.set_timeout(Some(Duration::ZERO));
    let err = session.run(&traced(&refined_q)).unwrap_err();
    assert!(matches!(err, ColarmError::Canceled { .. }), "got {err:?}");
    let after = session.stats();
    assert_eq!(after.column_misses, 1, "canceled run published a fresh scan");
    assert_eq!(after.columns_derived, 0, "canceled run published a derivation");
    assert_eq!(after.answer_misses, 1, "canceled run cached an answer");

    // Lifting the deadline re-executes fully; only now does the derived
    // materialization land in the cache, and the answer matches a cold run.
    session.set_timeout(None);
    let drilled = session.run(&traced(&refined_q)).unwrap();
    assert_eq!(session.stats().columns_derived, 1);
    let cold = QuerySession::new(colarm).run(&traced(&refined_q)).unwrap();
    assert_eq!(drilled.rules, cold.rules);
}
