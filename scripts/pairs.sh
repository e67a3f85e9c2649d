#!/usr/bin/env bash
# Alternating parent/change pairs of one bench_ledger workload — the
# protocol a perf claim is judged by on this noisy 2-CPU host.
#
#   scripts/pairs.sh <parent-tree> <change-tree> <workload> <N>
#
# Each tree is a checkout (or copy) of the repo; its ledger is built
# once into <tree>/.bench_build (git-ignored) and run from inside the
# tree, which is where it finds bench_ledger/workloads/. Pair i runs
# both sides at seed i, odd pairs parent first, even pairs change first.
# Per end-to-end row: both medians and quartiles, the pairs the change
# won (ties count for neither) and a verdict against the row's bound in
# <change-tree>/BENCHMARK.json:
#   better     - won >= 9/10 of the pairs and the medians differ by more
#                than the distance between the parent's quartiles
#   WORSE      - median worse by more than the bound, spread within it
#   unresolved - a side's spread (IQR / median) is wider than the bound
#   same       - none of the above: no worse than the bound
# Exits 1 on a WORSE row, a failed operation, `correct: false` or a
# `result_hash` that differs between the sides at the same seed.
# Runs last `run_seconds` of <change-tree>/BENCHMARK.json.
set -euo pipefail

if [ $# -ne 4 ]; then
    sed -n '2,21s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=$(jq -r .run_seconds "$change/BENCHMARK.json")

for tree in "$parent" "$change"; do
    echo "== build $tree ==" >&2
    # cargo prunes the lock file's stale entries on every build: keep the
    # tree's own copy aside and put it back, whatever the build did
    lock=$tree/bench_ledger/Cargo.lock
    mkdir -p "$tree/.bench_build"
    cp -p "$lock" "$tree/.bench_build/Cargo.lock.kept"
    built=0
    (cd "$tree" && CARGO_TARGET_DIR="$tree/.bench_build" \
        cargo build --release --quiet --offline --manifest-path bench_ledger/Cargo.toml) || built=$?
    mv "$tree/.bench_build/Cargo.lock.kept" "$lock"
    [ "$built" -eq 0 ] || exit "$built"
done

samples=$(mktemp)
trap 'rm -f "$samples"' EXIT

# one run: its JSON line and info line -> "side pair metric value" rows
run_side() {
    local side=$1 tree=$2 seed=$3 out
    out=$(cd "$tree" && .bench_build/release/bench_ledger \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null)
    tail -n 1 <<<"$out" | jq -r --arg s "$side" --arg p "$seed" '
        (.metrics | to_entries[] | "\($s)\t\($p)\t\(.key)\t\(.value.value)"),
        "\($s)\t\($p)\t#failed\t\(.failed + (if .correct then 0 else 1 end))"' >>"$samples"
    grep '^info ' <<<"$out" | sed 's/^info //' |
        jq -r --arg s "$side" --arg p "$seed" '"\($s)\t\($p)\t#hash\t\(.result_hash)"' >>"$samples"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_side parent "$parent" "$i"
        run_side change "$change" "$i"
    else
        run_side change "$change" "$i"
        run_side parent "$parent" "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

echo "# $workload: $pairs alternating pairs, seed = pair index, --seconds $seconds, $(nproc) CPUs"
jq -r '.end_to_end[] | "bound\t\(.name)\t\(.better)\t\(.bound)"' "$change/BENCHMARK.json" |
    cat - "$samples" | awk -F'\t' '
    # quantile by the ledger rule (stats.rs): position p(n+1), linear, clamped
    function quantile(a, n, p,    pos, lo, frac) {
        if (n == 1) return a[1]
        pos = p * (n + 1); lo = int(pos)
        if (lo < 1) lo = 1; if (lo > n - 1) lo = n - 1
        frac = pos - lo; if (frac < 0) frac = 0; if (frac > 1) frac = 1
        return a[lo] + frac * (a[lo + 1] - a[lo])
    }
    function summarize(side, m, out,    n, i, j, x, a) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, i, m) in v) {
            # insertion sort (mawk has no asort)
            x = v[side, i, m] + 0
            for (j = n++; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
            a[j + 1] = x
        }
        out["q1"] = quantile(a, n, 0.25); out["med"] = quantile(a, n, 0.5)
        out["q3"] = quantile(a, n, 0.75)
    }
    $1 == "bound" { order[++rows] = $2; lower[$2] = ($3 == "lower"); bound[$2] = $4; next }
    { v[$1, $2, $3] = $4; if ($2 + 0 > pairs) pairs = $2 + 0 }
    END {
        printf "%-22s %36s %36s %7s %8s  %s\n", "row", "parent median [q1, q3]",
            "change median [q1, q3]", "wins", "change", "verdict"
        for (r = 1; r <= rows; r++) {
            m = order[r]
            summarize("parent", m, P); summarize("change", m, C)
            wins = 0
            for (i = 1; i <= pairs; i++) {
                d = v["change", i, m] - v["parent", i, m]
                if (lower[m]) d = -d
                if (d > 0) wins++
            }
            gain = C["med"] - P["med"]; if (lower[m]) gain = -gain
            rel = P["med"] != 0 ? gain / (P["med"] < 0 ? -P["med"] : P["med"]) : 0
            spread = 0
            if (P["med"] != 0) spread = (P["q3"] - P["q1"]) / P["med"]
            if (C["med"] != 0 && (C["q3"] - C["q1"]) / C["med"] > spread)
                spread = (C["q3"] - C["q1"]) / C["med"]
            if (wins * 10 >= pairs * 9 && gain > P["q3"] - P["q1"]) verdict = "better"
            else if (spread > bound[m]) verdict = "unresolved"
            else if (rel < -bound[m]) { verdict = "WORSE"; bad = 1 }
            else verdict = "same"
            printf "%-22s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %4d/%-2d %+7.1f%%  %s\n",
                m, P["med"], P["q1"], P["q3"], C["med"], C["q1"], C["q3"],
                wins, pairs, 100 * (C["med"] - P["med"]) / (P["med"] != 0 ? P["med"] : 1), verdict
        }
        for (i = 1; i <= pairs; i++) {
            failed += v["parent", i, "#failed"] + v["change", i, "#failed"]
            if (v["parent", i, "#hash"] != v["change", i, "#hash"]) {
                printf "seed %d: result_hash %s (parent) != %s (change)\n", i,
                    v["parent", i, "#hash"], v["change", i, "#hash"]
                mismatch = 1
            }
        }
        if (!mismatch) printf "# result_hash identical on all %d seeds\n", pairs
        printf "# failed operations or incorrect runs, both sides: %d\n", failed
        exit (bad || mismatch || failed) ? 1 : 0
    }'
