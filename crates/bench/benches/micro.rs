//! Microbenchmarks of the substrate hot paths: tidset algebra, R-tree
//! range search, IT-tree closure lookup, and per-itemset rule generation.

use colarm::LocalizedQuery;
use colarm_bench::{build_system, mushroom_spec, random_subset_spec, Scale};
use colarm_data::{Itemset, Tidset};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    // Tidset intersections: balanced (merge path) and skewed (gallop path).
    let mut rng = StdRng::seed_from_u64(3);
    let big = Tidset::from_unsorted((0..200_000u32).filter(|_| rng.gen_bool(0.5)));
    let mid = Tidset::from_unsorted((0..200_000u32).filter(|_| rng.gen_bool(0.4)));
    let small = Tidset::from_unsorted((0..200_000u32).filter(|_| rng.gen_bool(0.002)));
    group.bench_function("tidset/intersect_balanced", |b| {
        b.iter(|| black_box(big.intersect(&mid).len()))
    });
    group.bench_function("tidset/intersect_skewed_gallop", |b| {
        b.iter(|| black_box(big.intersect(&small).len()))
    });
    group.bench_function("tidset/intersect_count_skewed", |b| {
        b.iter(|| black_box(small.intersect_count(&big)))
    });

    // Hybrid-kernel representation pairs on a 100k universe (the
    // BENCH_tidset.json scenarios): dense×dense takes the word-AND +
    // popcount path, sparse×dense probes bitmap words, sparse×sparse
    // stays on the merge/gallop path of the seed.
    let dense10 = Tidset::from_unsorted((0..100_000u32).filter(|_| rng.gen_bool(0.1)));
    let dense50 = Tidset::from_unsorted((0..100_000u32).filter(|_| rng.gen_bool(0.5)));
    let sparse_a = Tidset::from_unsorted((0..100_000u32).filter(|_| rng.gen_bool(0.0005)));
    let sparse_b = Tidset::from_unsorted((0..100_000u32).filter(|_| rng.gen_bool(0.02)));
    group.bench_function("tidset/intersect_count_dense10_dense50", |b| {
        b.iter(|| black_box(dense10.intersect_count(&dense50)))
    });
    group.bench_function("tidset/intersect_count_sparse_dense", |b| {
        b.iter(|| black_box(sparse_a.intersect_count(&dense50)))
    });
    group.bench_function("tidset/intersect_count_sparse_sparse_gallop", |b| {
        b.iter(|| black_box(sparse_a.intersect_count(&sparse_b)))
    });
    let mut scratch = Tidset::new();
    group.bench_function("tidset/intersect_into_dense_reused_buffer", |b| {
        b.iter(|| {
            dense10.intersect_into(&dense50, &mut scratch);
            black_box(scratch.len())
        })
    });

    // Index-level operations on the mushroom analog.
    let spec = mushroom_spec(Scale::Fast);
    let system = build_system(&spec);
    let index = system.index();
    let mut rng = StdRng::seed_from_u64(4);
    let (range, subset) = random_subset_spec(index.dataset(), index.vertical(), 0.1, &mut rng);
    let rect = index.range_rect(&range);
    group.bench_function("rtree/range_search", |b| {
        b.iter(|| black_box(index.rtree().query(&rect, 0).0.len()))
    });
    group.bench_function("rtree/supported_range_search", |b| {
        b.iter(|| black_box(index.rtree().query(&rect, 500).0.len()))
    });
    // Closure lookup of a 2-item subset of a long stored CFI.
    let (_, probe_cfi) = index
        .ittree()
        .iter()
        .max_by_key(|(_, c)| c.itemset.len())
        .expect("nonempty index");
    let probe: Itemset = probe_cfi.itemset.items().iter().copied().take(2).collect();
    group.bench_function("ittree/closure_lookup", |b| {
        b.iter(|| black_box(index.ittree().closure(&probe)))
    });
    // One full optimized query end-to-end.
    let query = LocalizedQuery::builder()
        .range(range)
        .minsupp(spec.minsupps[1])
        .minconf(spec.minconf)
        .build().expect("valid query");
    let _ = subset;
    let request = colarm::QueryRequest::query(&query);
    group.bench_function("end_to_end/optimized_query", |b| {
        b.iter(|| black_box(system.run(&request).expect("runs").rules.len()))
    });
    // Plan-operator parallelism: the same plan at 1 thread vs the session
    // default (answers are bit-identical; only the duration moves).
    let focal = index.resolve_subset(query.range.clone()).expect("resolves");
    for (label, threads) in [("threads_1", 1), ("threads_default", 0)] {
        group.bench_function(format!("end_to_end/ssvs_{label}"), |b| {
            b.iter(|| {
                let a = colarm::engine::execute(
                    index,
                    &query,
                    &focal,
                    colarm::PlanKind::SsVs,
                    colarm::ExecOptions::with_threads(threads),
                    &colarm::QueryLimits::none(),
                    None,
                )
                .expect("runs");
                black_box(a.rules.len())
            })
        });
    }
    // Metrics-reporting overhead: counters are tallied unconditionally in
    // per-worker `Meter`s; the `metrics` flag only controls whether the
    // aggregated block is attached to the trace. The on/off cases bound
    // the cost of that design (budget: within 5% of each other).
    for (label, metrics) in [("metrics_off", false), ("metrics_on", true)] {
        group.bench_function(format!("end_to_end/ssvs_{label}"), |b| {
            b.iter(|| {
                let a = colarm::engine::execute(
                    index,
                    &query,
                    &focal,
                    colarm::PlanKind::SsVs,
                    colarm::ExecOptions::with_threads(1).with_metrics(metrics),
                    &colarm::QueryLimits::none(),
                    None,
                )
                .expect("runs");
                black_box(a.rules.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
