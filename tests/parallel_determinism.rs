//! Parallel execution is an invisible knob: the offline index build and
//! all six online plans produce **bit-identical** results at every thread
//! count — same CFIs in the same order, same rules, same `OpTrace` unit
//! accounting. Only wall-clock durations may differ.

use colarm::data::synth::{generate, SynthConfig};
use colarm::engine;
use colarm::{
    Colarm, ExecOptions, LocalizedQuery, MipIndex, MipIndexConfig, PlanKind, QueryLimits,
    QueryRequest, QuerySession, Semantics,
};

/// Dense enough that candidate lists cross the operators' internal
/// parallelism threshold, so threads > 1 genuinely take the parallel paths.
fn dataset() -> colarm::data::Dataset {
    generate(&SynthConfig {
        name: "par-det".into(),
        seed: 77,
        records: 600,
        domains: vec![3, 3, 4, 2, 3, 2],
        top_mass: 0.6,
        skew: 1.0,
        clusters: 2,
        cluster_focus: 0.5,
        focus_strength: 0.9,
        templates: 4,
        template_len: 3,
        template_prob: 0.3,
    })
}

fn build(threads: usize) -> MipIndex {
    MipIndex::build(
        dataset(),
        MipIndexConfig {
            primary_support: 0.02,
            threads,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn index_build_is_thread_count_invariant() {
    let seq = build(1);
    for threads in [2, 4, 8] {
        let par = build(threads);
        assert_eq!(par.num_mips(), seq.num_mips(), "{threads} threads");
        // Same CFIs with the same ids, itemsets and tidsets: the CFI
        // numbering feeds the R-tree payloads and snapshots, so it must
        // not depend on scheduling.
        for (id, cfi) in seq.ittree().iter() {
            let other = par.ittree().get(id);
            assert_eq!(other.itemset, cfi.itemset, "{threads} threads, {id:?}");
            assert_eq!(other.tids, cfi.tids, "{threads} threads, {id:?}");
        }
    }
}

/// N OS threads each drive their own drill-down session over ONE shared
/// system, concurrently, at different per-session thread counts. Every
/// session must produce bit-identical rules and unit accounting, and —
/// because each session runs the same chain against its own caches — the
/// same derivation/hit/miss counters. This pins down that the persistent
/// worker pool and the cross-query reuse caches introduce no
/// scheduling-dependent state into answers or session accounting.
#[test]
fn concurrent_sessions_share_one_system_deterministically() {
    let colarm = Colarm::from_index(build(1)).into_shared();
    let schema = colarm.index().dataset().schema().clone();
    // A 4-step refinement chain; Unrestricted semantics forces the ARM
    // plan, so SELECT (and the column cache) runs at every step.
    let steps: [(&str, &[&str]); 4] = [
        ("a0", &["v0", "v1"]),
        ("a1", &["v0", "v1"]),
        ("a2", &["v0", "v1", "v2"]),
        ("a3", &["v0"]),
    ];
    let chain: Vec<LocalizedQuery> = (1..=steps.len())
        .map(|depth| {
            let mut b = LocalizedQuery::builder();
            for (attr, values) in &steps[..depth] {
                b = b.range_named(&schema, attr, values).unwrap();
            }
            b.minsupp(0.2)
                .minconf(0.5)
                .semantics(Semantics::Unrestricted)
                .build()
                .unwrap()
        })
        .collect();
    let run_chain = |threads: usize| {
        let session = QuerySession::new(colarm.clone());
        session.set_threads(threads);
        let mut out = Vec::new();
        for q in &chain {
            let answer = session.run(&QueryRequest::query(q).with_trace(true)).unwrap();
            let trace = answer.trace.expect("traced run");
            let units: Vec<u64> = trace.ops.iter().map(|o| o.units.to_bits()).collect();
            out.push((answer.rules, units, answer.subset_size));
        }
        (out, session.stats())
    };
    let (reference, ref_stats) = run_chain(1);
    assert!(reference.iter().any(|(rules, _, _)| !rules.is_empty()));
    assert_eq!(ref_stats.subset_misses, 1, "only the chain root resolves fresh");
    assert_eq!(ref_stats.subsets_derived, chain.len() - 1);
    assert_eq!(ref_stats.column_misses, 1, "only the chain root scans fresh");
    assert_eq!(ref_stats.columns_derived, chain.len() - 1);
    assert_eq!(ref_stats.answer_misses, chain.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = [2usize, 3, 8, 0]
            .into_iter()
            .map(|threads| {
                let run_chain = &run_chain;
                scope.spawn(move || run_chain(threads))
            })
            .collect();
        for h in handles {
            let (result, stats) = h.join().unwrap();
            assert_eq!(result, reference, "concurrent session diverged");
            assert_eq!(stats, ref_stats, "per-session counters diverged");
        }
    });
}

#[test]
fn all_plans_bit_identical_across_thread_counts() {
    let index = build(1);
    let schema = index.dataset().schema().clone();
    let queries = [
        LocalizedQuery::builder()
            .range_named(&schema, "a0", &["v0"])
            .unwrap()
            .minsupp(0.05)
            .minconf(0.5)
            .build().unwrap(),
        LocalizedQuery::builder()
            .range_named(&schema, "a1", &["v0", "v1"])
            .unwrap()
            .item_attrs_named(&schema, &["a2", "a3", "a4"])
            .unwrap()
            .minsupp(0.1)
            .minconf(0.6)
            .build().unwrap(),
    ];
    for query in &queries {
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        for plan in PlanKind::ALL {
            let seq = engine::execute(
                &index,
                query,
                &subset,
                plan,
                ExecOptions::with_threads(1),
                &QueryLimits::none(),
                None,
            )
            .unwrap();
            // 0 = session default (all cores), the rest pin odd counts.
            for threads in [2, 3, 8, 0] {
                let par = engine::execute(
                    &index,
                    query,
                    &subset,
                    plan,
                    ExecOptions::with_threads(threads),
                    &QueryLimits::none(),
                    None,
                )
                .unwrap();
                assert_eq!(par.rules, seq.rules, "{plan} diverged at {threads} threads");
                assert_eq!(par.trace.ops.len(), seq.trace.ops.len());
                for (a, b) in seq.trace.ops.iter().zip(&par.trace.ops) {
                    assert_eq!(a.kind, b.kind);
                    assert_eq!(a.input, b.input, "{plan}/{} at {threads} threads", a.kind);
                    assert_eq!(a.output, b.output, "{plan}/{} at {threads} threads", a.kind);
                    assert_eq!(
                        a.units.to_bits(),
                        b.units.to_bits(),
                        "{plan}/{} unit accounting drifted at {threads} threads",
                        a.kind
                    );
                }
            }
        }
    }
}
