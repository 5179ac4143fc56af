//! The zero-copy mapped load path is an invisible knob: a v4 snapshot
//! loaded through `mmap` — lazily or eagerly validated — answers every
//! plan bit-identically to the same index decoded from the owned
//! (framed v3) stream, at every thread count, including the optimizer's
//! plan choice and predicted seconds. Concurrency over one shared
//! lazily-validated map is also deterministic, and mapping works on
//! files the process can only read.

use colarm::data::synth::{generate, SynthConfig};
use colarm::engine;
use colarm::{
    load_index_with_mode, save_index, save_index_v3_with_constants, Colarm, ExecOptions,
    LocalizedQuery, MipIndex, MipIndexConfig, PlanKind, QueryLimits, QueryOutcome, QueryRequest,
    ValidationMode,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Dense enough that candidate lists cross the operators' internal
/// parallelism thresholds and every container kind (array, bitmap,
/// runs) shows up in the persisted tidsets.
fn dataset() -> colarm::data::Dataset {
    generate(&SynthConfig {
        name: "mmap-det".into(),
        seed: 1203,
        records: 900,
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

fn build_index() -> MipIndex {
    MipIndex::build(
        dataset(),
        MipIndexConfig {
            primary_support: 0.02,
            ..Default::default()
        },
    )
    .unwrap()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("colarm-mmap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn queries(schema: &colarm::data::Schema) -> Vec<LocalizedQuery> {
    vec![
        LocalizedQuery::builder()
            .range_named(schema, "a0", &["v0"])
            .unwrap()
            .minsupp(0.05)
            .minconf(0.5)
            .build()
            .unwrap(),
        LocalizedQuery::builder()
            .range_named(schema, "a1", &["v0", "v1"])
            .unwrap()
            .item_attrs_named(schema, &["a2", "a3", "a4"])
            .unwrap()
            .minsupp(0.1)
            .minconf(0.6)
            .build()
            .unwrap(),
    ]
}

/// Save once as framed v3 (owned decode) and once as mapped v4; load the
/// v4 twice (lazy, eager). All three restored indexes answer all six
/// plans bit-identically at 1/2/8 threads — rules, per-operator traces
/// and unit accounting — and the optimizer sees the same statistics, so
/// plan choice and predicted seconds match to the bit.
#[test]
fn mapped_load_is_bit_identical_to_owned_decode_on_all_plans() {
    let original = build_index();
    let constants = colarm::cost::CostConstants::default();
    let v3_path = temp_path("det_v3.snap");
    let v4_path = temp_path("det_v4.snap");
    save_index_v3_with_constants(&original, constants, &v3_path).unwrap();
    save_index(&original, &v4_path).unwrap();

    let (owned, owned_consts) = load_index_with_mode(&v3_path, ValidationMode::Eager).unwrap();
    let (lazy, lazy_consts) = load_index_with_mode(&v4_path, ValidationMode::Lazy).unwrap();
    let (eager, eager_consts) = load_index_with_mode(&v4_path, ValidationMode::Eager).unwrap();
    assert_eq!(owned_consts, lazy_consts, "persisted constants diverged");
    assert_eq!(owned_consts, eager_consts, "persisted constants diverged");
    assert_eq!(owned.num_mips(), original.num_mips());
    assert_eq!(lazy.num_mips(), original.num_mips());
    assert_eq!(eager.num_mips(), original.num_mips());

    let schema = original.dataset().schema().clone();
    for query in &queries(&schema) {
        let so = owned.resolve_subset(query.range.clone()).unwrap();
        let sl = lazy.resolve_subset(query.range.clone()).unwrap();
        let se = eager.resolve_subset(query.range.clone()).unwrap();
        assert_eq!(so.tids(), sl.tids(), "subset resolution diverged on the lazy map");
        assert_eq!(so.tids(), se.tids(), "subset resolution diverged on the eager map");
        for plan in PlanKind::ALL {
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions::with_threads(threads);
                let none = QueryLimits::none();
                let run = |index: &MipIndex, subset| {
                    engine::execute(index, query, subset, plan, opts, &none, None).unwrap()
                };
                let (a, b, c) = (run(&owned, &so), run(&lazy, &sl), run(&eager, &se));
                for (label, other) in [("lazy", &b), ("eager", &c)] {
                    assert_eq!(
                        a.rules, other.rules,
                        "{plan} rules diverged on the {label} map at {threads} threads"
                    );
                    assert_eq!(a.trace.ops.len(), other.trace.ops.len());
                    for (x, y) in a.trace.ops.iter().zip(&other.trace.ops) {
                        assert_eq!(x.kind, y.kind);
                        assert_eq!(x.input, y.input, "{plan}/{} ({label})", x.kind);
                        assert_eq!(x.output, y.output, "{plan}/{} ({label})", x.kind);
                        assert_eq!(
                            x.units.to_bits(),
                            y.units.to_bits(),
                            "{plan}/{} unit accounting drifted ({label}, {threads} threads)",
                            x.kind
                        );
                    }
                }
            }
        }
    }

    // The full optimized path: same plan choice, same predicted seconds.
    let sys_owned = Colarm::from_index(owned);
    let sys_lazy = Colarm::from_index(lazy);
    let sys_eager = Colarm::from_index(eager);
    for query in &queries(&schema) {
        let a = run_optimized(&sys_owned, query);
        let b = run_optimized(&sys_lazy, query);
        let c = run_optimized(&sys_eager, query);
        for (label, other) in [("lazy", &b), ("eager", &c)] {
            assert_outcomes_bit_identical(&a, other, label);
        }
    }
}

/// Run `query` through the optimizer and execution pipeline, keeping the
/// full choice + trace for comparison.
fn run_optimized(sys: &Colarm, query: &LocalizedQuery) -> QueryOutcome {
    sys.run(&QueryRequest::query(query).with_trace(true)).unwrap()
}

fn assert_outcomes_bit_identical(a: &QueryOutcome, b: &QueryOutcome, label: &str) {
    assert_eq!(a.plan, b.plan, "{label} executed plan");
    assert_eq!(a.subset_size, b.subset_size, "{label} subset size");
    assert_eq!(a.rules, b.rules, "{label} rules");
    let (ca, cb) = (
        a.choice.as_ref().expect("optimizer ran"),
        b.choice.as_ref().expect("optimizer ran"),
    );
    assert_eq!(ca.chosen, cb.chosen, "{label} plan choice");
    assert_eq!(ca.estimates.len(), cb.estimates.len());
    for (x, y) in ca.estimates.iter().zip(&cb.estimates) {
        assert_eq!(x.plan, y.plan, "{label} estimate order");
        assert_eq!(
            x.total().to_bits(),
            y.total().to_bits(),
            "{label} predicted seconds drifted for {}",
            x.plan
        );
    }
}

/// N OS threads hammer ONE shared `Arc<Colarm>` whose index sits on a
/// lazily-validated map: the deferred CRC pass races to be first, every
/// thread still gets the bit-identical reference answer, and nothing
/// panics or deadlocks.
#[test]
fn concurrent_queries_on_a_shared_lazy_map_are_bit_identical() {
    let original = build_index();
    let v4_path = temp_path("concurrent_v4.snap");
    save_index(&original, &v4_path).unwrap();

    let schema = original.dataset().schema().clone();
    let qs = queries(&schema);
    // Reference answers from the owned in-memory build.
    let reference_sys = Colarm::from_index(original);
    let reference: Vec<QueryOutcome> =
        qs.iter().map(|q| run_optimized(&reference_sys, q)).collect();

    let (index, _) = load_index_with_mode(&v4_path, ValidationMode::Lazy).unwrap();
    let shared = Arc::new(Colarm::from_index(index));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let qs = &qs;
                scope.spawn(move || {
                    // Stagger which query each worker touches first so the
                    // validation race is hit from both entry points.
                    let mut outs = Vec::new();
                    for round in 0..qs.len() {
                        let i = (worker + round) % qs.len();
                        outs.push((i, run_optimized(&shared, &qs[i])));
                    }
                    outs
                })
            })
            .collect();
        for h in handles {
            for (i, out) in h.join().unwrap() {
                assert_outcomes_bit_identical(&reference[i], &out, &format!("query {i}"));
            }
        }
    });
}

/// `PROT_READ` + `MAP_PRIVATE` means a snapshot the process cannot write
/// still maps and serves queries — the common production shape where the
/// index file is owned by a deploy user and the server runs unprivileged.
#[cfg(unix)]
#[test]
fn read_only_snapshot_maps_and_answers() {
    use std::os::unix::fs::PermissionsExt;
    let original = build_index();
    let path = temp_path("readonly_v4.snap");
    save_index(&original, &path).unwrap();
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o444)).unwrap();

    let schema = original.dataset().schema().clone();
    for mode in [ValidationMode::Lazy, ValidationMode::Eager] {
        let (index, _) = load_index_with_mode(&path, mode).unwrap();
        index.ensure_validated().unwrap();
        let query = &queries(&schema)[0];
        let subset = index.resolve_subset(query.range.clone()).unwrap();
        let got = engine::execute(
            &index,
            query,
            &subset,
            PlanKind::Sev,
            ExecOptions::with_threads(1),
            &QueryLimits::none(),
            None,
        )
        .unwrap();
        let ss = original.resolve_subset(query.range.clone()).unwrap();
        let want = engine::execute(
            &original,
            query,
            &ss,
            PlanKind::Sev,
            ExecOptions::with_threads(1),
            &QueryLimits::none(),
            None,
        )
        .unwrap();
        assert_eq!(got.rules, want.rules, "{mode:?}");
    }
    // Restore write permission so the temp dir can be cleaned up.
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o644)).unwrap();
}
