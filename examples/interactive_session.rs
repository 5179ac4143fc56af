//! Multi-query session + index persistence: an analyst workflow across
//! process restarts (paper §7 future-work item (b), plus snapshotting).
//!
//! 1. Build the MIP-index over the mushroom analog, snapshot it to disk
//!    in the checksummed binary format (atomic temp-file + rename).
//! 2. "Restart": restore the index from the snapshot (no re-mining).
//! 3. Explore one region with a burst of threshold refinements through a
//!    caching [`colarm::QuerySession`] and show the cache doing its job.
//!
//! ```sh
//! cargo run --release --example interactive_session
//! ```

use colarm::{Colarm, LocalizedQuery, QueryRequest, QuerySession};
use colarm_bench::{build_system, mushroom_spec, random_subset_spec, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // ---- day one: offline preprocessing -------------------------------
    let spec = mushroom_spec(Scale::Fast);
    let t = Instant::now();
    let system = build_system(&spec);
    println!(
        "Mined + indexed {} MIPs in {:.2?}.",
        system.index().num_mips(),
        t.elapsed()
    );
    let snapshot_path = std::env::temp_dir().join(format!(
        "colarm-interactive-session-{}.snap",
        std::process::id()
    ));
    let t = Instant::now();
    let bytes = system
        .save_index_snapshot(&snapshot_path)
        .expect("snapshot saves");
    println!(
        "Snapshot: {:.1} MiB of binary (format v{}) in {:.2?}.",
        bytes as f64 / (1024.0 * 1024.0),
        colarm::persist::FORMAT_VERSION,
        t.elapsed()
    );

    // ---- day two: restore without re-mining ----------------------------
    let t = Instant::now();
    let restored = Colarm::load_index_snapshot(&snapshot_path)
        .expect("snapshot restores")
        .into_shared();
    let _ = std::fs::remove_file(&snapshot_path);
    println!(
        "Restored {} MIPs in {:.2?} (no CHARM run).\n",
        restored.index().num_mips(),
        t.elapsed()
    );

    // ---- the analyst session -------------------------------------------
    let session = QuerySession::new(restored.clone());
    let mut rng = StdRng::seed_from_u64(3);
    let (range, subset) = random_subset_spec(
        restored.index().dataset(),
        restored.index().vertical(),
        0.15,
        &mut rng,
    );
    println!(
        "Exploring {} ({} records, {:.1}% of D):",
        range.display(restored.index().dataset().schema()),
        subset.len(),
        subset.fraction() * 100.0
    );
    for (minsupp, minconf) in [(0.70, 0.85), (0.75, 0.85), (0.80, 0.90), (0.70, 0.85)] {
        let q = LocalizedQuery::builder()
            .range(range.clone())
            .minsupp(minsupp)
            .minconf(minconf)
            .build().expect("valid query");
        let t = Instant::now();
        let answer = session.run(&QueryRequest::query(&q)).expect("query runs");
        println!(
            "  minsupp {:.0}% minconf {:.0}% → {:>6} rules via {:<9} in {:>9.3?}",
            minsupp * 100.0,
            minconf * 100.0,
            answer.rules.len(),
            answer.plan.name(),
            t.elapsed()
        );
    }
    let stats = session.stats();
    println!(
        "\nSession cache: the region was resolved once ({} hit(s) after), and \
         the repeated query was served from the answer cache ({} hit).",
        stats.subset_hits, stats.answer_hits
    );
}
