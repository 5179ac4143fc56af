//! Cross-crate checks of the cost model calibration, the optimizer's
//! decision quality at smoke scale, index persistence, and the
//! multi-query session cache.

use colarm::{Colarm, IndexSnapshot, LocalizedQuery, PlanKind, QueryRequest, QuerySession};
use colarm_bench::{build_system, mushroom_spec, random_subset_spec, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn calibrated_estimates_are_in_a_sane_range() {
    // After calibration, each plan's estimate should be within a couple of
    // orders of magnitude of its measured time — enough for argmin plan
    // selection to be meaningful (the paper's accuracy experiment), while
    // staying robust to CI noise.
    let spec = mushroom_spec(Scale::Smoke);
    let system = build_system(&spec);
    let mut rng = StdRng::seed_from_u64(17);
    let (range, subset) = random_subset_spec(
        system.index().dataset(),
        system.index().vertical(),
        0.2,
        &mut rng,
    );
    let query = LocalizedQuery::builder()
        .range(range)
        .minsupp(spec.minsupps[1])
        .minconf(spec.minconf)
        .build().unwrap();
    let choice = system.optimizer().choose(system.index(), &query, &subset);
    for plan in PlanKind::ALL {
        let est = choice.estimate_for(plan).total();
        assert!(est.is_finite() && est > 0.0, "{plan}: estimate {est}");
        let measured = system
            .run(&QueryRequest::query(&query).with_plan(plan).with_trace(true))
            .unwrap()
            .trace
            .unwrap()
            .total
            .as_secs_f64();
        let ratio = (est / measured.max(1e-7)).max(measured.max(1e-7) / est);
        assert!(
            ratio < 1e4,
            "{plan}: estimate {est:.2e}s vs measured {measured:.2e}s (ratio {ratio:.0})"
        );
    }
}

#[test]
fn snapshot_restores_a_working_system() {
    let spec = mushroom_spec(Scale::Smoke);
    let system = build_system(&spec);
    let json = IndexSnapshot::capture(system.index()).to_json().unwrap();
    let restored = Colarm::from_index(
        IndexSnapshot::from_json(&json).unwrap().restore().unwrap(),
    );
    assert_eq!(restored.index().num_mips(), system.index().num_mips());
    let mut rng = StdRng::seed_from_u64(23);
    let (range, subset) = random_subset_spec(
        system.index().dataset(),
        system.index().vertical(),
        0.2,
        &mut rng,
    );
    assert!(!subset.is_empty());
    let query = LocalizedQuery::builder()
        .range(range)
        .minsupp(spec.minsupps[0])
        .minconf(spec.minconf)
        .build().unwrap();
    let a = system.run(&QueryRequest::query(&query)).unwrap();
    let b = restored.run(&QueryRequest::query(&query)).unwrap();
    assert_eq!(a.rules, b.rules);
}

#[test]
fn session_caching_preserves_answers_under_bursts() {
    let spec = mushroom_spec(Scale::Smoke);
    let system = build_system(&spec).into_shared();
    let session = QuerySession::new(system.clone());
    let mut rng = StdRng::seed_from_u64(29);
    let (range, subset) = random_subset_spec(
        system.index().dataset(),
        system.index().vertical(),
        0.3,
        &mut rng,
    );
    assert!(!subset.is_empty());
    // A burst of threshold refinements over one region, then repeats.
    let thresholds = [
        (spec.minsupps[0], 0.85),
        (spec.minsupps[1], 0.85),
        (spec.minsupps[2], 0.90),
        (spec.minsupps[0], 0.85), // repeat of the first
    ];
    for &(minsupp, minconf) in &thresholds {
        let q = LocalizedQuery::builder()
            .range(range.clone())
            .minsupp(minsupp)
            .minconf(minconf)
            .build().unwrap();
        let via_session = session.run(&QueryRequest::query(&q)).unwrap();
        let direct = system.run(&QueryRequest::query(&q)).unwrap();
        assert_eq!(via_session.rules, direct.rules);
    }
    let stats = session.stats();
    assert_eq!(stats.subset_misses, 1, "one region, one resolution");
    assert_eq!(stats.answer_hits, 1, "the repeated query must hit");
    assert_eq!(stats.answer_misses, 3);
}

#[test]
fn calibration_survives_a_snapshot_round_trip_bit_exactly() {
    // The acceptance bar for the persisted statistics catalog:
    // calibrate → save → load must hand the optimizer the *same* fitted
    // cost constants (to the bit), the same catalog, and therefore the
    // same plan choice and predicted seconds for the same query.
    let spec = mushroom_spec(Scale::Smoke);
    let system = build_system(&spec); // build + calibrate
    let dir = std::env::temp_dir().join(format!("colarm-calib-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("calibrated.snap");
    system.save_index_snapshot(&path).unwrap();
    let restored = Colarm::load_index_snapshot(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let a = system.fitted_constants();
    let b = restored.fitted_constants();
    for (name, x, y) in [
        ("node", a.node, b.node),
        ("eliminate", a.eliminate, b.eliminate),
        ("verify", a.verify, b.verify),
        ("confidence", a.confidence, b.confidence),
        ("select", a.select, b.select),
        ("arm", a.arm, b.arm),
        ("union_const", a.union_const, b.union_const),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "constant `{name}` drifted across the round trip: {x:e} vs {y:e}"
        );
    }
    assert_eq!(
        system.index().catalog(),
        restored.index().catalog(),
        "statistics catalog drifted across the round trip"
    );

    let mut rng = StdRng::seed_from_u64(41);
    let (range, subset) = random_subset_spec(
        system.index().dataset(),
        system.index().vertical(),
        0.2,
        &mut rng,
    );
    assert!(!subset.is_empty());
    let query = LocalizedQuery::builder()
        .range(range)
        .minsupp(spec.minsupps[1])
        .minconf(spec.minconf)
        .build().unwrap();
    let before = system.optimizer().choose(system.index(), &query, &subset);
    let after = restored.optimizer().choose(restored.index(), &query, &subset);
    assert_eq!(before.chosen, after.chosen, "plan choice changed after restore");
    for plan in PlanKind::ALL {
        let x = before.estimate_for(plan).total();
        let y = after.estimate_for(plan).total();
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{plan}: predicted seconds drifted across the round trip ({x:e} vs {y:e})"
        );
    }
}

#[test]
fn traditional_arm_agrees_with_every_index_plan() {
    // The from-scratch ARM plan and the five MIP-index plans must
    // return identical answers on the benchmark analogs.
    let spec = mushroom_spec(Scale::Smoke);
    let system = build_system(&spec);
    let mut rng = StdRng::seed_from_u64(31);
    let (range, subset) = random_subset_spec(
        system.index().dataset(),
        system.index().vertical(),
        0.2,
        &mut rng,
    );
    assert!(!subset.is_empty());
    let query = LocalizedQuery::builder()
        .range(range)
        .minsupp(spec.minsupps[1])
        .minconf(spec.minconf)
        .build().unwrap();
    let arm = system
        .run(&QueryRequest::query(&query).with_plan(PlanKind::Arm))
        .unwrap();
    for plan in [PlanKind::Sev, PlanKind::Svs, PlanKind::SsEv, PlanKind::SsVs, PlanKind::SsEuv] {
        let idx = system
            .run(&QueryRequest::query(&query).with_plan(plan))
            .unwrap();
        assert_eq!(arm.rules, idx.rules, "{plan} disagrees with ARM");
    }
}
