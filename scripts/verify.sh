#!/usr/bin/env bash
# Tier-1 verification for the DLOOP reproduction (see ROADMAP.md).
#
# The workspace is hermetic — no registry dependencies — so everything
# here runs with the network disabled. `--offline` makes that explicit:
# if a registry dependency ever sneaks in, the build fails immediately
# (tests/hermetic.rs also guards this).
#
# Usage: scripts/verify.sh [--with-bench]
#   --with-bench  additionally smoke-run the micro-benchmarks with a
#                 reduced sample count (SIMKIT_BENCH_SAMPLES=3) and run
#                 the self-test of the benchmark/ harness (its own
#                 workspace, so `--workspace` above does not reach it).
#        scripts/verify.sh --check-deprecated DIR...
#                 run only the deprecated-shim gate, over DIR... (how
#                 tests/hermetic.rs shows the gate failing).
#        scripts/verify.sh --check-dead-pub ROOT
#                 run only the dead-public-API gate over the tree at ROOT.
#        scripts/verify.sh --check-results-match RESULTS FRESH
#                 run only the comparison behind the regenerate gate: every
#                 CSV in FRESH must equal its namesake in RESULTS.

set -euo pipefail

# An old entry point is migrated and deleted in the same change, never
# parked behind an attribute: a `#[deprecated]` shim is a second spelling
# someone has to keep bit-identical, and an `allow(deprecated)` is a
# caller that was not migrated.
check_no_deprecated() {
    if grep -rnE --include='*.rs' '#\[deprecated|allow\(deprecated\)' "$@"; then
        echo "error: deprecated shims (or allowances for them) in the sources above" >&2
        return 1
    fi
}
if [[ "${1:-}" == "--check-deprecated" ]]; then
    shift
    check_no_deprecated "$@"
    exit
fi

# A `pub fn`, `pub const` or `pub static` that no other file names is
# surface without a caller: it goes, or it loses its `pub`. Every such
# item under ROOT/crates/*/src must be named, as a whole word, in some
# other caller under ROOT (build output and .git aside). A caller is a
# *.rs file or a doc that describes the program: README.md, DESIGN.md or
# EXPERIMENTS.md, at any depth. Other docs (the changelog, the roadmap,
# task notes) name items that are gone or not yet built, so they do not
# count.
#
# The gate matches bare names, not paths: an item counts as called when
# any other file names any item of the same name. Two methods that share
# a name therefore shield each other — `EnergyConfig::total_mj` outlived
# its last caller because `EnergyTotals::total_mj` is still called.
check_dead_pub() {
    find "$1" \( -name target -o -name .git \) -prune -o -type f \
        \( -name '*.rs' -o -name README.md -o -name DESIGN.md -o -name EXPERIMENTS.md \) \
        -print0 | xargs -0 awk '
        FNR == 1 { delete seen }
        FILENAME ~ /\/crates\/[^\/]+\/src\// &&
            match($0, /^[ \t]*pub ((const )?fn|const|static( mut)?) [A-Za-z_][A-Za-z0-9_]*/) {
            item = substr($0, RSTART, RLENGTH)
            sub(/^[ \t]*/, "", item)
            name = item
            sub(/.* /, "", name)
            defined[name] = FILENAME ":" FNR ": " item
        }
        {
            n = split($0, words, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) {
                if (!(words[i] in seen)) {
                    seen[words[i]] = 1
                    files[words[i]]++
                }
            }
        }
        END {
            for (name in defined) {
                if (files[name] < 2) {
                    print defined[name] " is named in no other file"
                    dead = 1
                }
            }
            exit dead
        }' || {
        echo "error: public items without a caller above: delete them or drop their pub" >&2
        return 1
    }
}
if [[ "${1:-}" == "--check-dead-pub" ]]; then
    check_dead_pub "$2"
    exit
fi

# Every CSV in FRESH must equal, byte for byte, its namesake in RESULTS. A
# FRESH without CSVs fails too (the literal glob names no committed file).
check_results_match() {
    local results="$1" fresh="$2" csv status=0
    for csv in "$fresh"/*.csv; do
        cmp "$results/$(basename "$csv")" "$csv" || {
            echo "error: $(basename "$csv") no longer regenerates byte-equal to $results/" >&2
            status=1
        }
    done
    return "$status"
}
if [[ "${1:-}" == "--check-results-match" ]]; then
    check_results_match "$2" "$3"
    exit
fi

cd "$(dirname "$0")/.."

echo "==> no deprecated shims (#[deprecated] / allow(deprecated) in any workspace *.rs)"
check_no_deprecated crates src tests examples

echo "==> no dead public API (every pub fn/const/static in crates/*/src is named elsewhere)"
check_dead_pub .

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release (tier-1)"
cargo build --release --offline

# --no-fail-fast: a failing test binary must not hide the results of the
# binaries after it; the step still fails if any test does.
echo "==> cargo test -q (tier-1)"
cargo test -q --offline --no-fail-fast

echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace --no-fail-fast

echo "==> trace-sink smoke (ring replay, artifacts parse and reconcile)"
# The trace subcommand replays into one RingSink that never evicts and
# asserts in-process that it saw exactly one span per hardware operation,
# that it recorded ZERO drops, and that every JSONL line rendered from it
# and the Chrome export pass the JSON linter. Any drift aborts the run.
trace_out="$(mktemp -d)"
cargo run --release --offline -q -p dloop-bench --bin dloop-experiments -- \
    trace --scale 8 --requests 2000 --out "$trace_out" >/dev/null
for artifact in trace_chrome.json trace_plane_util.csv trace_channel_util.csv \
    trace_power.csv trace_spans.jsonl trace_0.csv; do
    [[ -s "$trace_out/$artifact" ]] || {
        echo "error: trace smoke did not produce $artifact" >&2
        exit 1
    }
done
# Belt and braces on top of the in-process checks: the span journal
# must be one JSON object per line.
head -n 3 "$trace_out/trace_spans.jsonl" | while IFS= read -r line; do
    [[ "$line" == "{"*"}" ]] || {
        echo "error: trace_spans.jsonl line is not a JSON object: $line" >&2
        exit 1
    }
done
power_trace_header="$(head -n 1 "$trace_out/trace_power.csv")"
[[ "$power_trace_header" == bucket_start_ms,bucket_end_ms,plane_0_fj,*,total_fj ]] || {
    echo "error: trace_power.csv header drifted: $power_trace_header" >&2
    exit 1
}
# The utilization and power timelines share one window grid, so their
# bucket_start_ms,bucket_end_ms columns must be identical.
for timeline in trace_channel_util.csv trace_power.csv; do
    cmp -s <(cut -d, -f1,2 "$trace_out/trace_plane_util.csv") \
        <(cut -d, -f1,2 "$trace_out/$timeline") || {
        echo "error: $timeline windows differ from trace_plane_util.csv" >&2
        exit 1
    }
done
rm -rf "$trace_out"

echo "==> NCQ replay smoke (trace --mode ncq, queue-depth CSV with locked header)"
# The same trace subcommand under the NCQ scheduler: its in-process
# asserts cover the queue-depth CSV's shape and conservation laws; here
# we additionally pin the artifact to disk and its header byte-for-byte.
ncq_out="$(mktemp -d)"
cargo run --release --offline -q -p dloop-bench --bin dloop-experiments -- \
    trace --mode ncq --depth 16 --scale 8 --requests 2000 --out "$ncq_out" >/dev/null
[[ -s "$ncq_out/trace_queue_depth.csv" ]] || {
    echo "error: NCQ trace smoke did not produce trace_queue_depth.csv" >&2
    exit 1
}
queue_header="$(head -n 1 "$ncq_out/trace_queue_depth.csv")"
[[ "$queue_header" == "bucket_start_ms,in_flight,pending,admitted,completed" ]] || {
    echo "error: trace_queue_depth.csv header drifted: $queue_header" >&2
    exit 1
}
rm -rf "$ncq_out"

echo "==> background-GC gated soak (10k-op GC-heavy tail, wake-event contract)"
# Replays a write burst whose tail is still collecting when arrivals run
# out: before the wake-event fix the gated scheduler stalled there (or
# tripped its end-of-trace assert). The test also proves issue times are
# arrival-independent.
cargo test -q --release --offline --test replay_modes gated_background_gc_soak

echo "==> queued-scheduler oracle (indexed window vs naive scan, 256 random traces)"
# The queued session's indexed pass against a naive selector that rescans
# the whole window on every pass: every gated/NCQ/QoS discipline, window
# depths 1, 2, 3, 8 and unbounded, background GC off and on. `cargo test` above runs 24 cases.
SIMKIT_CHECK_CASES=256 cargo test -q --release --offline -p dloop-ftl-kit --lib \
    queued_scheduler_matches_naive_oracle

echo "==> host SQ windows hold in every replay mode (256 random traces)"
# A host stack of depth d keeps at most d commands in flight per
# submission queue under open, gated, ncq(4) and window-FIFO(4) replay,
# across coalescing corners (the deadlock rescue included), and the
# five-instant timeline tiles exactly. `cargo test` above runs 8 cases.
SIMKIT_CHECK_CASES=256 cargo test -q --release --offline --test replay_modes \
    interleaved_sq_windows_bound_occupancy_per_queue

echo "==> one measurement window (counters additive over consecutive runs, 256 random splits)"
# A run of A then B on one device reports A's counters and B's; a twin
# that runs A++B at once must report their sum, field by field, for every
# FTL, open and ncq(8), energy on, with and without a fault plan.
# `cargo test` above runs 24 cases.
SIMKIT_CHECK_CASES=256 cargo test -q --release --offline --test properties \
    counters_are_additive_over_consecutive_runs

echo "==> net reclaim (every move-based collection frees more than it spends, 256 devices)"
# Nearly full micro devices (fill 0.9-1.0): a relocation's moves plus its
# parity skips stay below the victim's page count. `cargo test` above
# runs 16 cases.
SIMKIT_CHECK_CASES=256 cargo test -q --release --offline -p dloop --lib \
    move_based_collections_free_more_than_they_spend

echo "==> bitmap blocks (Block against a per-page model, 256 random op sequences)"
# Program/skip/invalidate/erase on blocks of 1-64 pages: every return
# value, page state, valid offset and counter agrees with a Vec<PageState>
# model after each step. `cargo test` above runs 64 cases.
SIMKIT_CHECK_CASES=256 cargo test -q --release --offline -p dloop-nand --test block_model \
    block_agrees_with_a_per_page_model

echo "==> deferred GC remaps under faults (every FTL audits clean, 256 fault plans)"
# Program failures and retirements land between a collection's moves and
# its remaps; every FTL's map, directory and flash must still agree.
# `cargo test` above runs 16 cases.
SIMKIT_CHECK_CASES=256 cargo test -q --release --offline --test faults \
    any_fault_plan_keeps_every_ftl_consistent

echo "==> host-stack smoke (host subcommand, coalescing + dirty-ratio + depth sweeps)"
# One pass of all three host-stack sweeps through the CLI: five
# coalescing settings, five dirty ratios, and the interleaved SQ-window
# depth sweep, with the schema-locked CSV headers pinned byte-for-byte
# (the same constants the dloop-bench unit tests lock). The pass-through
# identity and exact phase tiling behind these numbers are claim C13,
# and the per-queue window bound plus depth/turnaround trend are claim
# C14 — both covered by `cargo test -q` above and by
# `dloop-experiments verify`. 6000 requests is the smallest round count
# at which the 0.10 dirty-ratio row trips a flush.
host_out="$(mktemp -d)"
cargo run --release --offline -q -p dloop-bench --bin dloop-experiments -- \
    host --scale 8 --requests 6000 --out "$host_out" >/dev/null
for artifact in host_0.csv host_1.csv host_2.csv; do
    [[ -s "$host_out/$artifact" ]] || {
        echo "error: host smoke did not produce $artifact" >&2
        exit 1
    }
done
coalesce_header="$(head -n 1 "$host_out/host_0.csv")"
[[ "$coalesce_header" == "batch,coalesce,e2e_ms,host_queue_ms,cache_ms,device_ms,completion_ms,mean_batch,mean_coalesced" ]] || {
    echo "error: host_0.csv header drifted: $coalesce_header" >&2
    exit 1
}
dirty_header="$(head -n 1 "$host_out/host_1.csv")"
[[ "$dirty_header" == "dirty_ratio,e2e_ms,cache_served_pct,writes_absorbed,writeback_cmds,flushes,forwarded" ]] || {
    echo "error: host_1.csv header drifted: $dirty_header" >&2
    exit 1
}
# The write-back cache must actually be exercised: every dirty-ratio row
# absorbs writes (the insert path), and at least one row flushes.
flushing_rows=0
while IFS=, read -r ratio _e2e _served absorbed _wb flushes _fwd; do
    [[ "$absorbed" =~ ^[0-9]+$ && "$absorbed" -gt 0 ]] || {
        echo "error: host_1.csv dirty-ratio $ratio row absorbed no writes" >&2
        exit 1
    }
    if [[ "$flushes" =~ ^[0-9]+$ && "$flushes" -gt 0 ]]; then
        flushing_rows=$((flushing_rows + 1))
    fi
done < <(tail -n +2 "$host_out/host_1.csv")
[[ "$flushing_rows" -gt 0 ]] || {
    echo "error: no host_1.csv dirty-ratio row reports a flush" >&2
    exit 1
}
depth_header="$(head -n 1 "$host_out/host_2.csv")"
[[ "$depth_header" == "depth,e2e_ms,host_queue_ms,device_ms,completion_ms,depth_stalls,max_sq_inflight" ]] || {
    echo "error: host_2.csv header drifted: $depth_header" >&2
    exit 1
}
# The interleaved driver must actually be exercising the window: the
# tightest setting (depth 1, second data row — the first is the
# unbounded depth-0 reference) has to report backpressure stalls, and
# the gauge column must respect queues × depth = 2.
depth1_row="$(sed -n '3p' "$host_out/host_2.csv")"
depth1_stalls="$(cut -d, -f6 <<<"$depth1_row")"
depth1_gauge="$(cut -d, -f7 <<<"$depth1_row")"
[[ "$depth1_stalls" =~ ^[0-9]+$ && "$depth1_stalls" -gt 0 ]] || {
    echo "error: host_2.csv depth-1 row reports no depth_stalls: $depth1_row" >&2
    exit 1
}
[[ "$depth1_gauge" =~ ^[0-9]+$ && "$depth1_gauge" -le 2 ]] || {
    echo "error: host_2.csv depth-1 max_sq_inflight exceeds the window: $depth1_row" >&2
    exit 1
}
rm -rf "$host_out"

echo "==> shard-identity smoke (2-shard vs sequential fingerprint, engaged + fallback)"
# The parallel engine's identity gate (claim C15) at property-test
# strength runs under `cargo test` above; this smoke re-runs the three
# named anchors release-fast: the plane-local engine must ENGAGE
# (witnessed by RunReport::shard_outcome) at 2, 4 and 8 shards (8 is
# clamped to the device's 4 channels) and match sequential
# bit-for-bit; the all-mode corpus pins that every sharded request which
# cannot engage still equals the sequential run; and each such fallback
# must report the guard that fired.
cargo test -q --release --offline --test replay_modes plane_local_fast_path_engages
cargo test -q --release --offline --test replay_modes sharded_replay_is_bit_identical
cargo test -q --release --offline --test replay_modes sharded_requests_that_fall_back_name_their_guard

echo "==> committed results regenerate (every table at default flags, byte-equal)"
# Between them fig8, fig9, fig10 and ablation run every FTL (DLOOP, DFTL,
# FAST and the ablation variants, IDEAL among them as DLOOP over a CMT
# that holds every entry) on the paper's traces, so any change that moves
# a simulated number shows up as a CSV diff here; params, traces,
# copyback, striping and channels take seconds. One process runs them
# all, so headline and verify's C2-C6 and C8 read the cells fig8 and
# fig10 ran, and claims_0.csv costs only C7 and C9-C16.
check_regenerates() {
    local results="$1"
    shift
    local regen_out status=0
    regen_out="$(mktemp -d)"
    cargo run --release --offline -q -p dloop-bench --bin dloop-experiments -- \
        "$@" --out "$regen_out" >/dev/null
    check_results_match "$results" "$regen_out" || status=1
    rm -rf "$regen_out"
    return "$status"
}
check_regenerates results fig8 fig9 fig10 headline verify ablation params traces copyback \
    striping channels

echo "==> cargo doc --no-deps (every workspace crate, must be warning-free)"
for crate in dloop-simkit dloop-faults dloop-nand dloop-ftl-kit dloop \
    dloop-baselines dloop-workloads dloop-host dloop-bench dloop-repro; do
    doc_log="$(cargo doc --no-deps --offline -p "$crate" 2>&1)" || {
        echo "$doc_log"
        exit 1
    }
    if grep -q "^warning" <<<"$doc_log"; then
        echo "$doc_log"
        echo "error: rustdoc warnings in $crate" >&2
        exit 1
    fi
done

if [[ "${1:-}" == "--with-bench" ]]; then
    echo "==> cargo bench -p dloop-bench (smoke: SIMKIT_BENCH_SAMPLES=3)"
    SIMKIT_BENCH_SAMPLES=3 cargo bench --offline -p dloop-bench

    echo "==> benchmark/ harness self-test (BENCHMARK.json <-> code, every workload at --quick size)"
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
fi

echo "verify: OK"
