#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite (one pass),
# the benchmark's smoke, the zero-warning lint bar, and the formatting
# check. Run before every merge (CI runs exactly this script).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== repro list == the experiments EXPERIMENTS.md and DESIGN.md §4 cite =="
diff <(cargo run --release --quiet -p bench --bin repro -- list | cut -f1 | sort) \
    <( (sed -n '/^## 4\. /,/^## 5\. /p' DESIGN.md; cat EXPERIMENTS.md) |
        grep -oE '\b(fig|tab|ablation|chaos)[0-9a-z]*_[0-9a-z_]+\b' | sort -u)

echo "== tests (workspace: every unit, guard and golden-hash suite, once) =="
cargo test --workspace -q

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
