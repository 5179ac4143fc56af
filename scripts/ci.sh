#!/usr/bin/env bash
# Tier-1 verification plus lint, as run by CI.
#
#   scripts/ci.sh            # build + test + clippy + unsafe audit
#   scripts/ci.sh --bench    # also gate on BENCH_tidset.json,
#                            # BENCH_server.json, BENCH_optimizer.json +
#                            # BENCH_coldstart.json thresholds (--check)
#                            # and regenerate BENCH_snapshot.json,
#                            # BENCH_engine.json + BENCH_session.json
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# Every workspace member's tests, not just the root package's: the
# library crates' unit tests (colarm, colarm-data, mine, rtree, cli) run
# here too.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Format stability: all committed golden fixtures (v1 sparse/dense, v2
# container payloads, v3 statistics catalog, v4 mmap layout) must keep
# loading and answering Table 1 on all six plans. Redundant with the
# full test run above, but kept as a named gate so a format break is
# called out explicitly.
echo "==> snapshot format stability (tests/fixtures/salary_index_v{1,2,3,4}.snap)"
cargo test -q --test snapshot_format golden_fixtures_load_and_answer_table1_on_all_plans

# Concurrent sessions over one shared system must stay bit-identical both
# when the test harness serializes them and when it runs them alongside
# everything else — the worker pool sees both contention shapes.
echo "==> concurrent-session determinism (serialized + default harness)"
RUST_TEST_THREADS=1 cargo test -q --test parallel_determinism \
    concurrent_sessions_share_one_system_deterministically
cargo test -q --test parallel_determinism \
    concurrent_sessions_share_one_system_deterministically

# The persistent pool's park/unpark and handoff paths behave differently
# under optimization; run its unit tests in release too.
echo "==> worker-pool tests (release)"
cargo test --release -q -p colarm-data par::

# Queries run through one path (Colarm::run / QuerySession::run over the
# operator engine). The workspace carries no #[deprecated] items; this
# gate keeps it that way and also fails on any use of a deprecated
# std or dependency API.
echo "==> no deprecated items or uses (-D deprecated)"
RUSTFLAGS="-D deprecated" cargo check --workspace --all-targets

# Boot the released `colarm serve` binary on an ephemeral port, run a
# 3-query drill-down over HTTP, and diff every answer against in-process
# execution. Covers the CLI + socket loop the in-process tests skip.
# The root `cargo build --release` builds only the root package, so build
# the CLI binary the smoke test drives explicitly.
echo "==> server smoke (colarm serve vs in-process, scripts/server_smoke.sh)"
cargo build --release -p colarm-cli
scripts/server_smoke.sh

# Unsafe audit: `unsafe` is confined to four audited modules (the worker
# pool's channel internals, the CLI's signal(2) shim, the server's
# poll(2) shim, and the snapshot mmap layer), each of which documents its
# obligations, and every crate root carries #![deny(unsafe_op_in_unsafe_fn)].
# A new `unsafe` block anywhere else fails CI until it is audited and
# added here.
echo "==> unsafe audit (allowlist + unsafe_op_in_unsafe_fn)"
UNSAFE_ALLOWLIST=$'crates/data/src/par.rs\ncrates/cli/src/main.rs\ncrates/colarm/src/server/http.rs\ncrates/colarm/src/persist/mmap.rs'
UNSAFE_FILES=$(grep -rEl "unsafe (fn|impl|extern)|unsafe \{" crates --include="*.rs" | sort)
if [[ "$UNSAFE_FILES" != "$(sort <<<"$UNSAFE_ALLOWLIST")" ]]; then
    echo "unsafe audit FAILED: unsafe code outside the audited allowlist" >&2
    diff <(sort <<<"$UNSAFE_ALLOWLIST") <(echo "$UNSAFE_FILES") >&2 || true
    exit 1
fi
for root in crates/data/src/lib.rs crates/mine/src/lib.rs crates/rtree/src/lib.rs \
            crates/colarm/src/lib.rs crates/bench/src/lib.rs crates/cli/src/main.rs; do
    grep -q 'deny(unsafe_op_in_unsafe_fn)' "$root" \
        || { echo "unsafe audit FAILED: $root lacks #![deny(unsafe_op_in_unsafe_fn)]" >&2; exit 1; }
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

if [[ "${1:-}" == "--bench" ]]; then
    # bench_tidset enforces the per-scenario min_speedup thresholds
    # recorded in BENCH_tidset.json and exits nonzero below any of them,
    # so this step is a hard gate, not just a report. --check re-measures
    # without rewriting the committed JSON.
    echo "==> bench_tidset (kernel microbenchmark + threshold gate)"
    cargo run --release -p colarm-bench --bin bench_tidset -- /tmp/bench_tidset_ci.json --check
    echo "==> bench_snapshot (binary vs JSON snapshot)"
    cargo run --release -p colarm-bench --bin bench_snapshot
    echo "==> bench_engine (operator-engine dispatch overhead)"
    cargo run --release -p colarm-bench --bin bench_engine
    echo "==> bench_session (drill-down reuse + persistent pool)"
    cargo run --release -p colarm-bench --bin bench_session
    # bench_server enforces the min_qps / max_p99_ms acceptance floors
    # recorded in BENCH_server.json and exits nonzero below them — a
    # hard gate on the worker-pool transport, same pattern as
    # bench_tidset above.
    echo "==> bench_server (concurrent HTTP drill-down clients + threshold gate)"
    cargo run --release -p colarm-bench --bin bench_server -- /tmp/bench_server_ci.json --check
    # bench_optimizer gates the cost model: catalog-driven prediction
    # accuracy and mispick rate vs the global-average baseline, per the
    # thresholds recorded in BENCH_optimizer.json.
    echo "==> bench_optimizer (cost-model accuracy + mispick threshold gate)"
    cargo run --release -p colarm-bench --bin bench_optimizer -- /tmp/bench_optimizer_ci.json --check
    # bench_coldstart enforces the min_ttfq_speedup floor recorded in
    # BENCH_coldstart.json: time-to-first-query through the lazily
    # validated mmap path must stay ≥10× faster than the owned v3
    # decode at production scale.
    echo "==> bench_coldstart (mmap TTFQ vs owned decode + threshold gate)"
    cargo run --release -p colarm-bench --bin bench_coldstart -- /tmp/bench_coldstart_ci.json --check
fi

echo "ci: all green"
