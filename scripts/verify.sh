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

echo "== scenario-key lint (reader, README key table and shipped .toml files name one key set) =="
# An address is the ("section", "key") pair of a Reader accessor call,
# written section.key; the reader must name each exactly once.
reader_keys=$(sed '/^#\[cfg(test)\]/,$d' crates/coupled/src/scenario.rs |
    grep -oE '\("[a-z.]+", "[a-z_]+"\)' | sed -E 's/\("(.*)", "(.*)"\)/\1.\2/' | sort)
if [ -n "$(uniq -d <<<"$reader_keys")" ]; then
    echo "verify: scenario.rs reads an address twice:" $(uniq -d <<<"$reader_keys") >&2
    exit 1
fi
diff <(echo "$reader_keys") \
    <(sed -n '/^### Scenario files/,/^### Configuring/p' README.md |
        sed -nE 's/^\| `([a-z.]+\.[a-z_]+)` \|.*/\1/p' | sort)
unread=$(comm -13 <(echo "$reader_keys") \
    <(awk '/^\[/ { gsub(/[][]|[ \t]*#.*/, ""); section = $0; next }
           /^[a-z_]+[ \t]*=/ { sub(/[ \t]*=.*/, ""); print section "." $0 }' \
        scenarios/*.toml bench_ledger/workloads/*.toml | sort -u))
if [ -n "$unread" ]; then
    echo "verify: a shipped scenario sets a key the reader does not read:" $unread >&2
    exit 1
fi

echo "== tests (workspace: every unit, guard and golden-hash suite, once) =="
cargo test --workspace -q

echo "== lane teams on one CPU (the parallel move and Colli_React, more lanes than cores) =="
# Lanes that outnumber the free cores must still finish, and give the
# one-lane bits.
taskset -c 0 timeout 120 cargo test -q -p dsmc the_move_is_the_same_on_any_lane_count
taskset -c 0 timeout 120 cargo test -q -p dsmc colli_react_is_the_same_on_any_lane_count

echo "== ledger smoke (every bench_ledger workload, both passes, every row present) =="
cargo run --release --quiet --offline --manifest-path bench_ledger/Cargo.toml -- --smoke
# cargo prunes the lock file's stale entries on every build; nothing
# under bench_ledger/ (nor BENCHMARK.json) may differ from HEAD
git checkout -- bench_ledger/Cargo.lock
if [ -n "$(git status --porcelain -- bench_ledger BENCHMARK.json)" ]; then
    git status --porcelain -- bench_ledger BENCHMARK.json
    echo "verify: the benchmark's files changed" >&2
    exit 1
fi

echo "== unset-option lint (every RunConfigBuilder / ServerConfig setter has a caller outside its file) =="
# An option nobody sets is a constant: delete the setter, keep the value.
unset=0
for pair in RunConfigBuilder:crates/coupled/src/config.rs ServerConfig:crates/jobsrv/src/server.rs; do
    ty=${pair%%:*} file=${pair#*:}
    for setter in $(sed -nE "/^impl $ty \{/,/^\}/s/^    pub fn ([a-z0-9_]+)\(mut self.*/\1/p" "$file"); do
        callers=$(grep -rlE "\.$setter\(" --include='*.rs' crates src tests examples bench_ledger/src |
            grep -vx "$file" || true)
        if [ -z "$callers" ]; then
            echo "verify: $ty::$setter has no caller outside $file" >&2
            unset=1
        fi
    done
done
[ "$unset" = 0 ] || exit 1

echo "== one-error-path lint (a failed collective ends the step; coupled latches no CommError) =="
# Backend methods return their CommError and run_step stops there;
# production code under crates/coupled/src keeps no Option<CommError>
# (a field, binding or parameter) to carry one past the failed call.
latched=$(for f in crates/coupled/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } /:[ \t]*Option<CommError>/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$latched" ]; then
    echo "$latched" >&2
    echo "verify: coupled declares an Option<CommError> (return the error instead)" >&2
    exit 1
fi

echo "== uncalled-API lint (every pub fn outside crates/bench is named somewhere besides its definition) =="
# A name counts as used when it occurs as a word on a non-comment line
# of the workspace, the tests, the examples or the benchmark, the
# `pub fn NAME` of its own definition and `pub use` items (from
# `pub use` to the line with its `;`) aside: a re-export is not a call.
uncalled=$(comm -23 \
    <(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' |
        xargs sed -nE 's/^\s*pub fn ([A-Za-z0-9_]+).*/\1/p' | sort -u) \
    <(find crates src tests examples bench_ledger/src -name '*.rs' | xargs cat |
        awk '/^[ \t]*pub use / { reexport = 1 } reexport { if (/;/) reexport = 0; next } { print }' |
        grep -vE '^\s*//' | sed -E 's/\bpub fn [A-Za-z0-9_]+//' |
        grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u))
if [ -n "$uncalled" ]; then
    echo "verify: pub fn with no caller (an API nobody calls is deleted, not kept):" $uncalled >&2
    exit 1
fi

echo "== duplicate-window lint (no 8 production lines of >= 200 chars written twice) =="
# Per file: trim, drop blank and // lines, stop at the first
# #[cfg(test)]; a window is 8 consecutive remaining lines, its length
# counted with the 8 newlines.
find crates/*/src src -name '*.rs' | sort | xargs awk '
    FNR == 1 { n = 0; skip = 0 }
    skip { next }
    { line = $0; gsub(/^[ \t]+|[ \t]+$/, "", line) }
    line ~ /^#\[cfg\(test\)\]/ { skip = 1; next }
    line == "" || line ~ /^\/\// { next }
    {
        n++; text[n % 8] = line; at[n % 8] = FNR
        if (n < 8) next
        w = ""
        for (i = n - 7; i <= n; i++) w = w text[i % 8] "\n"
        if (length(w) < 200) next
        here = FILENAME ":" at[(n - 7) % 8]
        if (w in first) { print "duplicate window: " first[w] " == " here; dups++ }
        else first[w] = here
    }
    END { if (dups) { print "verify: " dups " duplicated 8-line windows" > "/dev/stderr"; exit 1 } }'

# Production lines (up to the first #[cfg(test)], // lines aside) of the
# .rs files under paths $2.. that match regex $1.
production_lines() {
    local pattern=$1
    shift
    find "$@" -name '*.rs' | sort |
        xargs awk -v pattern="$pattern" 'FNR == 1 { skip = 0 }
            /^[ \t]*#\[cfg\(test\)\]/ { skip = 1 }
            !skip && !/^[ \t]*\/\// && $0 ~ pattern { print FILENAME ":" FNR ": " $0 }'
}
# ... that call a function matching regex $1.
production_calls() {
    local pattern=$1
    shift
    production_lines "($pattern)\\(" "$@"
}

echo "== whole-mesh-reduction lint (no total_volume( / bbox( in the particle crates' production code) =="
# O(cells) and O(nodes) sums: geometry a particle kernel reads is
# cached on the mesh when it is built, never recomputed per particle.
reductions=$(production_calls 'total_volume|bbox' crates/dsmc/src crates/pic/src crates/coupled/src)
if [ -n "$reductions" ]; then
    echo "$reductions"
    echo "verify: a whole-mesh reduction in a particle crate (cache it on the mesh instead)" >&2
    exit 1
fi

echo "== per-step-gradient lint (no shape_gradients( where the PIC substep runs) =="
# The field gather reads the fine mesh's table; only the table's
# builder (mesh) and the once-per-run assembly (pic/src/poisson.rs)
# derive the gradients.
gradients=$(production_calls 'shape_gradients' crates/pic/src/field.rs crates/pic/src/push.rs \
    crates/pic/src/deposit.rs crates/coupled/src)
if [ -n "$gradients" ]; then
    echo "$gradients"
    echo "verify: shape gradients re-derived per step (read TetMesh::shape_gradient_table instead)" >&2
    exit 1
fi

echo "== located-once lint (no fine-tet test in pic's production code but the deposit's weights and the fallback scan) =="
# NestedMesh::child_at reads an ion's fine cell off its parent's
# barycentrics. A fine-mesh .bary( call may appear only in deposit.rs:
# anywhere in fine_cell_exhaustive (the fallback), and elsewhere only
# outside a loop (the one bary of the child the deposit weighs with).
tested=$(find crates/pic/src -name '*.rs' | sort |
    xargs awk 'FNR == 1 { skip = 0; fn = ""; depth = 0; loop = -1 }
        /^[ \t]*#\[cfg\(test\)\]/ { skip = 1 }
        skip || /^[ \t]*\/\// { next }
        match($0, /fn [a-z0-9_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        loop < 0 && /^[ \t]*(for |while |loop \{)/ { loop = depth }
        /fine\.bary\(/ && !(FILENAME ~ /\/deposit\.rs$/ && (fn == "fine_cell_exhaustive" || loop < 0)) {
            print FILENAME ":" FNR ": " $0 }
        { depth += gsub(/\{/, "{") - gsub(/\}/, "}"); if (loop >= 0 && depth <= loop) loop = -1 }')
if [ -n "$tested" ]; then
    echo "$tested"
    echo "verify: a fine tet tested to locate a particle (read the child off the parent: NestedMesh::child_at)" >&2
    exit 1
fi

echo "== keyed-collision lint (no collision pass is handed an engine stream) =="
# Each cell of the NTC and MEX/CEX passes draws from its own stream,
# keyed by (run seed, step, subcycle, pass, cell), so the passes run on
# any lane count and give the owner's bits on any rank; a production
# call of CollisionModel::collide / CrossCollisionModel::collide handed
# self.rng, self.rng_dsmc or colli_react's `rng` would tie them to one
# stream drawn in cell order again.
streams=$(find crates/*/src -name '*.rs' | sort |
    xargs awk 'FNR == 1 { skip = 0; fn = ""; at = "" }
        /^[ \t]*#\[cfg\(test\)\]/ { skip = 1 }
        skip || /^[ \t]*\/\// { next }
        match($0, /fn [a-z0-9_]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
        # a call: its text from the opening parenthesis to the closing one
        at == "" && /\.collide\(/ {
            at = FILENAME ":" FNR ": " $0; args = ""; depth = 0
            $0 = substr($0, index($0, ".collide(") + 8)
        }
        at != "" {
            args = args " " $0
            depth += gsub(/\(/, "(") - gsub(/\)/, ")")
            if (depth <= 0) {
                if (args ~ /self\.rng(_dsmc)?([^a-z_]|$)/ || (fn == "colli_react" && args ~ /(^|[^a-z_.])rng([^a-z_]|$)/))
                    print at
                at = ""
            }
        }')
if [ -n "$streams" ]; then
    echo "$streams"
    echo "verify: a collision pass handed an engine stream (key it: dsmc::collision_key)" >&2
    exit 1
fi

echo "== no-trig lint (no .sin( / .cos( / sin_cos in the production part of dsmc's collision passes and particles::sample) =="
# An isotropic direction is Marsaglia's disc rejection and a normal pair
# his polar method: a collision or a Maxwellian takes one sqrt (and a
# normal pair one ln), never the cos and sin of a uniform angle.
trig=$(production_lines '[.](sin|cos)[(]|sin_cos' crates/dsmc/src/collide.rs crates/dsmc/src/cross.rs \
    crates/particles/src/sample.rs)
if [ -n "$trig" ]; then
    echo "$trig"
    echo "verify: trigonometry in a collision pass or a sampler (draw by disc rejection: particles::sample)" >&2
    exit 1
fi

echo "== indexed-once lint (no per-cell Vec<u32> lists in dsmc's production code) =="
# Colli_React buckets a subcycle's particles once, into the flat
# particles::CellIndex both collision passes read (a counting sort whose
# arrays keep their capacity); a pass that grows a Vec per cell again
# pays an allocation per occupied cell and a sweep of every cell's list.
lists=$(production_lines 'Vec<Vec<u32>>|[[]Vec<u32>; 2[]]' crates/dsmc/src)
if [ -n "$lists" ]; then
    echo "$lists"
    echo "verify: per-cell particle lists in dsmc (read the subcycle's particles::CellIndex instead)" >&2
    exit 1
fi

echo "== gathered-field lint (no Vec<Vec3> in the production part of pic/src/field.rs) =="
# E is gathered at the ions from φ; no per-fine-cell field array comes back.
arrays=$(production_lines 'Vec<Vec3>' crates/pic/src/field.rs)
if [ -n "$arrays" ]; then
    echo "$arrays"
    echo "verify: a per-cell field array in pic::field (keep φ and gather E at the ions)" >&2
    exit 1
fi

echo "== one-geometry lint (coupled builds meshes and operators in world.rs only; jobsrv workers go through the cache) =="
# What a NozzleSpec fixes is built by Geometry (crates/coupled/src/world.rs)
# and nowhere else in coupled; a job-server worker that built its own
# world or session would bypass the geometry cache.
rebuilds=$(production_calls 'NestedMesh::from_coarse|\.cell_graph|PoissonSolver::new|PoissonOperator::assemble' \
    crates/coupled/src | grep -v '^crates/coupled/src/world\.rs:' || true)
bypasses=$(production_calls 'World::build|EngineSession::new' crates/jobsrv/src)
if [ -n "$rebuilds$bypasses" ]; then
    echo "$rebuilds$bypasses"
    echo "verify: geometry built outside Geometry, or a jobsrv worker bypassing the geometry cache" >&2
    exit 1
fi

echo "== ordered-container lint (no HashMap / HashSet in the partitioner's and the balancer's production code) =="
# Their decisions are pinned bitwise, and a hash container iterates in
# an order that differs from process to process.
hashed=$(production_lines 'HashMap|HashSet' crates/partition/src crates/balance/src)
if [ -n "$hashed" ]; then
    echo "$hashed"
    echo "verify: a hash container where decisions are pinned (sort, or use a Vec / BTreeMap)" >&2
    exit 1
fi

echo "== one-VHS-law lint (no .powf( in the particle crates' production code outside impl Vhs, no vhs_cross_section( anywhere) =="
# particles::Vhs computes the law's constants once per pass, and its
# acceptance test takes no powf at ω = 0.75; a powf per candidate
# elsewhere undoes that.
powers=$(find crates/dsmc/src crates/particles/src crates/pic/src -name '*.rs' | sort |
    xargs awk 'FNR == 1 { skip = 0; vhs = 0 }
        /^[ \t]*#\[cfg\(test\)\]/ { skip = 1 }
        /^impl Vhs \{/ { vhs = 1 }
        vhs { if (/^\}/) vhs = 0; next }
        !skip && !/^[ \t]*\/\// && /\.powf\(/ { print FILENAME ":" FNR ": " $0 }')
renamed=$(grep -rnE 'vhs_cross_section\(' --include='*.rs' crates src tests examples bench_ledger/src || true)
if [ -n "$powers$renamed" ]; then
    echo "$powers$renamed"
    echo "verify: a VHS law outside particles::Vhs (take Species::vhs() once, call Vhs::cross_section)" >&2
    exit 1
fi

echo "== deleted-names lint (one decomposition, one lane count per engine, no forked streams, no resumable or replayed flight, one partition weight, no collision-event list) =="
# The Eulerian/Lagrangian split was the unified decomposition with
# W_cell = 0 and more messages; RunConfig::ranks_per_node and
# RebalanceConfig::kway were set only by tests. RunConfig::threads_per_rank
# sized a second kernel pool whose collide forked per-lane RNG streams;
# every kernel now gives the same bits on any lane count. The parallel
# move paused a flight at its first wall and resumed it later (the
# RESUMED flight instance, the Flown scratch, Flight::Paused), then
# dropped it there on an RNG never drawn (NoDraws, STOP_AT_WALL) and
# flew it again in order (the AT_WALL / SKIPPED scratch marks); each
# flight now draws its wall hits from a stream keyed by the move and
# the particle, and its lane flies it to the end.
# Eq. 7 is the only partition weight: the timer-augmented cost source
# and its sampling fork are gone. Colli_React reacts inside its per-cell
# pass: the collision-event list (CollisionEvent, the engine's events
# field), the event walk of react_collisions and recombination's
# buffer-wide ions_per_cell are gone, and so is pow_half_is, which kept
# a per-candidate sqrt on powf's bits. None comes back.
deleted=$(grep -rnE 'EulLag|eullag|Decomposition::|\.decomposition\b|block_ranges|block_owner|\.ranks_per_node\b|fork_rng|threads_per_rank|ZeroThreads|busy_seconds|export_pool_busy|move_lanes|RESUMED|Flown|Paused|CostSource|CostSample|TimerAugmented|wants_samples|cost_rates|timer_augmented|balance\.cost\.|CollisionEvent|react_collisions|ions_per_cell|pow_half_is' \
    --include='*.rs' crates src tests examples || true)
# the engine's per-subcycle event list (an `events` field of RankEngine)
events=$(grep -nE '\b(self|eng)\.events\b|^\s*(pub )?events:' crates/coupled/src/engine.rs || true)
replay=$(awk 'FNR == 1 { skip = 0 }
        /^[ \t]*#\[cfg\(test\)\]/ { skip = 1 }
        !skip && /NoDraws|STOP_AT_WALL|AT_WALL|SKIPPED/ { print FILENAME ":" FNR ": " $0 }' crates/dsmc/src/*.rs)
if [ -n "$deleted$replay$events" ]; then
    echo "$deleted$replay$events"
    echo "verify: a deleted name is back (particle-only weighting is rebalance.wlm.w_cell = 0; an engine has one Pool, RankEngine::lanes; a lane flies each flight to the end on its keyed wall stream, never paused or flown twice; cells are weighed by eq. 7 only; a cell reacts inside dsmc::ColliReact)" >&2
    exit 1
fi

echo "== one-lane CG lint (the field solve has no lanes and no barrier) =="
# The CG iterates on the interior rows on one lane: on a 2-vCPU host its
# two-lane team, whose lanes met at a spin-then-sleep barrier four times
# per iteration, lost to one lane. Lanes come back to the solve only
# with a measurement that shows them winning.
cg_lanes=$({
    grep -rnE 'AtomicU64|team\(|TeamBarrier' --include='*.rs' crates/sparse/src || true
    grep -rn 'TeamBarrier' --include='*.rs' crates src tests examples bench_ledger/src || true
})
if [ -n "$cg_lanes" ]; then
    echo "$cg_lanes"
    echo "verify: lanes or a barrier are back in the field solve (sparse::CgWorkspace::solve runs on one lane over the interior system)" >&2
    exit 1
fi

echo "== one-plane-table lint (one per-cell face-plane table, one exit search) =="
# The coarse mesh's face planes are one structure-of-arrays row per cell
# (mesh::tet::CellPlanes), which the branch-free exit search reads for
# all four faces at once. The array-of-structs face_planes table it
# replaced and the per-face ray_plane loop survive only as the search's
# test oracle; neither comes back.
planes=$({
    grep -rnw 'face_planes' --include='*.rs' crates || true
    production_lines 'ray_plane' crates
})
if [ -n "$planes" ]; then
    echo "$planes"
    echo "verify: a second face-plane table or the per-face exit loop is back (read TetMesh's CellPlanes rows through mesh::first_exit)" >&2
    exit 1
fi

echo "== wire deleted-names lint (the transport is reliable and FIFO per pair; a fault is a rank failure) =="
# MPI delivers every message once and in order per pair, so the lossy-
# wire simulator and the reliability layer that undid it are gone with
# their counters; a FaultPlan schedules only rank stalls and kills,
# which session::rank_main fires itself at the top of a step. None
# comes back, comments included.
wire=$(grep -rnE 'ChaosComm|ChaosWorld|ReliableComm|ReliableWorld|FaultAction|comm_retries|comm_dedup_dropped|faults_injected|fn on_step' \
    --include='*.rs' crates src tests examples || true)
if [ -n "$wire" ]; then
    echo "$wire"
    echo "verify: a deleted wire-fault name is back (the wire is the raw transport; a FaultPlan holds kills and stalls only)" >&2
    exit 1
fi

echo "== one-transport lint (vmpi::Comm is the one concrete endpoint; the queue has no priorities) =="
# The endpoint trait had one implementation, so it and its bounds are
# gone with the copy shims and the un-receive: a payload is copied once
# at send, and a fence-and-drain declines a frame with try_recv_if. Job
# priorities and the starvation aging that bounded their skew went with
# it. Code only: comment text after // is dropped before matching.
transport=$(find crates src tests examples -name '*.rs' | sort |
    xargs awk '{ line = $0; sub(/\/\/.*/, "", line) }
        line ~ /trait Comm([^A-Za-z0-9_]|$)|impl Comm for|(^|[^:]):[ \t]*Comm([^A-Za-z0-9_]|$)|ThreadComm|send_from|recv_into|\.pushback\(|drain_tagged|JobPriority|STARVATION_LIMIT/ {
            print FILENAME ":" FNR ": " $0 }')
if [ -n "$transport" ]; then
    echo "$transport"
    echo "verify: a second transport surface or a job priority is back (take &vmpi::Comm; send owns its Vec; decline with try_recv_if; the queue is round-robin + FIFO)" >&2
    exit 1
fi

echo "== one-retry-policy lint (the engine session alone decides a replay; the job server keeps no session) =="
# EngineSession::run replays a rank death under RestartFromCheckpoint
# at most MAX_RECOVERIES times, and a job-server worker calls it once
# per job: no other production code reads the policy or a retry cap,
# and no job-server type holds a session between attempts.
second=$({
    production_lines 'RestartFromCheckpoint|MAX_RECOVERIES|MAX_ATTEMPTS' \
        $(ls -d crates/*/src | grep -v '^crates/bench/') |
        grep -vE '^crates/coupled/src/(config|session)\.rs:' || true
    production_lines '^[ \t]*((pub )?[a-z_][a-z0-9_]*:|[A-Z][A-Za-z0-9_]*\().*EngineSession' crates/jobsrv/src
})
if [ -n "$second" ]; then
    echo "$second"
    echo "verify: a second retry policy (replays are EngineSession::run's; a job is one dispatch)" >&2
    exit 1
fi

echo "== solo-run lint (the recovery, serving and observation guards pin no physics) =="
# chaos_guard, jobsrv_guard and obs_guard hold each run bitwise to the
# solo run of its config (tests/common: threaded_baseline,
# serial_baseline, assert_same_physics). A digest or a population
# constant there would make every physics change re-pin them too.
solo_guards="tests/chaos_guard.rs tests/jobsrv_guard.rs tests/obs_guard.rs"
pins=$({
    grep -nE '0x[0-9a-fA-F_]{16,}' $solo_guards
    grep -lPz 'population,\s*[0-9]' $solo_guards
} || true)
if [ -n "$pins" ]; then
    echo "$pins"
    echo "verify: a physics pin in a recovery/serving/observation guard; pin physics in tests/engine_guard.rs (or scenario_guard.rs) and compare with the solo run here" >&2
    exit 1
fi

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
