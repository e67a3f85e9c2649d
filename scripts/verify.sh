#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, the
# zero-warning lint bar, and the formatting check. Run before every
# merge (CI runs exactly this script).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== vmpi fast path (comm + chaos + reliability units) =="
cargo test -q -p vmpi

echo "== tests (workspace) =="
cargo test --workspace -q

echo "== chaos gate (seeded fault plans must reproduce clean hashes) =="
cargo test -q --test chaos_guard

echo "== overlap gate (Hier + overlap + threads_per_rank=2 must match DC bitwise) =="
cargo test -q --test engine_guard hier_overlapped_matches_distributed_bitwise

echo "== balance gate (alternative cost sources / decompositions stay pinned) =="
cargo test -q --test balance_guard

echo "== scenario gate (canned scenarios stay golden; subcycle/pump are strict opt-ins) =="
cargo test -q --test scenario_guard

echo "== jobsrv gate (served jobs bitwise-match solo runs; kill mid-job recovers) =="
cargo test -q --test jobsrv_guard

echo "== bench smoke (quick snapshot must emit every kernel row) =="
BENCH_QUICK=1 BENCH_OUT=target/bench_smoke.json \
    cargo run --release -q -p bench --bin bench_snapshot

echo "== ledger smoke (every bench_ledger workload, both passes, every row present) =="
cargo run --release --quiet --offline --manifest-path bench_ledger/Cargo.toml -- --smoke

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== rustfmt (check) =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt not installed; skipping format check"
fi

echo "verify: OK"
