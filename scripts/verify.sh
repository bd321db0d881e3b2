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

# A `pub fn` that no other file names is surface without a caller: it
# goes, or it loses its `pub`. Every `pub fn` under ROOT/crates/*/src must
# be named, as a whole word, in some other *.rs or *.md file under ROOT
# (build output and .git aside).
check_dead_pub() {
    find "$1" \( -name target -o -name .git \) -prune -o -type f \
        \( -name '*.rs' -o -name '*.md' \) -print0 | xargs -0 awk '
        FNR == 1 { delete seen }
        FILENAME ~ /\/crates\/[^\/]+\/src\// &&
            match($0, /^[ \t]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.* fn /, "", name)
            defined[name] = FILENAME ":" FNR
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
                    print defined[name] ": pub fn " name " is named in no other file"
                    dead = 1
                }
            }
            exit dead
        }' || {
        echo "error: public functions without a caller above: delete them or drop their pub" >&2
        return 1
    }
}
if [[ "${1:-}" == "--check-dead-pub" ]]; then
    check_dead_pub "$2"
    exit
fi

cd "$(dirname "$0")/.."

echo "==> no deprecated shims (#[deprecated] / allow(deprecated) in any workspace *.rs)"
check_no_deprecated crates src tests examples

echo "==> no dead public API (every pub fn in crates/*/src is named elsewhere)"
check_dead_pub .

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release (tier-1)"
cargo build --release --offline

echo "==> cargo test -q (tier-1)"
cargo test -q --offline

echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace

echo "==> fault-storm smoke (BER sweep over every FTL, offline)"
cargo run --release --offline -q -p dloop-bench --bin dloop-experiments -- \
    faults --scale 8 --requests 2000 --out none >/dev/null

echo "==> trace-sink smoke (ring + stream replay, artifacts parse and reconcile)"
# The trace subcommand replays through a TeeSink (bounded RingSink +
# uncapped JSONL StreamSink) and asserts in-process that both sinks saw
# exactly one span per hardware operation, that the stream recorded ZERO
# drops, that every streamed JSONL line and the Chrome export pass the
# JSON linter, and it warns loudly if the bounded ring discarded spans.
# Any drift aborts the run.
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
# Belt and braces on top of the in-process checks: the streamed journal
# must be one JSON object per line.
head -n 3 "$trace_out/trace_spans.jsonl" | while IFS= read -r line; do
    [[ "$line" == "{"*"}" ]] || {
        echo "error: trace_spans.jsonl line is not a JSON object: $line" >&2
        exit 1
    }
done
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
# run_queued against a naive selector that rescans the whole window on
# every pass: every gated/NCQ/QoS discipline, window depths 1, 2, 3, 8 and
# unbounded, background GC off and on. `cargo test` above runs 24 cases.
SIMKIT_CHECK_CASES=256 cargo test -q --release --offline -p dloop-ftl-kit --lib \
    queued_scheduler_matches_naive_oracle

echo "==> QoS sweep smoke (qos subcommand, policy rows + per-tenant columns)"
# One pass of the multi-tenant policy sweep on a small mix: exercises
# every shipped policy plus both C12 bounds through the CLI and pins
# the per-tenant columns of the emitted table.
qos_out="$(mktemp -d)"
cargo run --release --offline -q -p dloop-bench --bin dloop-experiments -- \
    qos --scale 8 --requests 3000 --out "$qos_out" >/dev/null
[[ -s "$qos_out/qos_0.csv" ]] || {
    echo "error: qos smoke did not produce qos_0.csv" >&2
    exit 1
}
qos_header="$(head -n 1 "$qos_out/qos_0.csv")"
for col in policy "t1 ms" "t2 ms" "t3 ms" spread; do
    [[ "$qos_header" == *"$col"* ]] || {
        echo "error: qos_0.csv missing column '$col': $qos_header" >&2
        exit 1
    }
done
grep -q "fair-share" "$qos_out/qos_0.csv" || {
    echo "error: qos_0.csv missing the fair-share policy row" >&2
    exit 1
}
rm -rf "$qos_out"

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
# (witnessed by RunReport::shard_outcome) and match sequential
# bit-for-bit; the all-mode corpus pins that every sharded request which
# cannot engage still equals the sequential run; and each such fallback
# must report the guard that fired.
cargo test -q --release --offline --test replay_modes plane_local_fast_path_engages
cargo test -q --release --offline --test replay_modes sharded_replay_is_bit_identical
cargo test -q --release --offline --test replay_modes sharded_requests_that_fall_back_name_their_guard

echo "==> shard sweep (BENCH_shard.json perf trajectory)"
# A reduced-size pass of the `shard` experiment: replays one aged-device
# overwrite trace at 1/2/4/8 shards, requires every sharded fingerprint
# to equal the sequential one, and emits the BENCH_shard.json perf
# trajectory (speedup measured on the engine's critical path — serial
# partition + slowest shard's fork + replay + serial merge — with raw
# wall_ms, host_cpus and the per-phase breakdown recorded alongside;
# see crates/bench/src/experiments/shard.rs).
# The committed repo-root BENCH_shard.json comes from the full
# multi-million-op run (`dloop-experiments shard`, 2M requests).
shard_out="$(mktemp -d)"
cargo run --release --offline -q -p dloop-bench --bin dloop-experiments -- \
    shard --requests 200000 --out "$shard_out" >/dev/null
[[ -s "$shard_out/BENCH_shard.json" ]] || {
    echo "error: shard sweep did not produce BENCH_shard.json" >&2
    exit 1
}
grep -q '"all_fingerprints_match": true' "$shard_out/BENCH_shard.json" || {
    echo "error: sharded replay fingerprints diverged:" >&2
    cat "$shard_out/BENCH_shard.json" >&2
    exit 1
}
# The JSON's "pass" (speedup_at_4 >= 1.5) is not gated: it is modelled
# from critical_path_ms on a 2-vCPU host whose core cap saturates at 2
# shards. The trusted speed-up number is req_per_s of the benchmark/
# workload overwrite_gc_shard2 against overwrite_gc.
shard_header="$(head -n 1 "$shard_out/shard_0.csv")"
[[ "$shard_header" == "shards,wall_ms,critical_path_ms,speedup,fingerprint_match,pages_played,partition_ms,fork_ms,replay_ms,merge_ms,cap_saturated,outcome" ]] || {
    echo "error: shard_0.csv header drifted: $shard_header" >&2
    exit 1
}
# The sweep's device keeps its map resident, so every sharded row must
# have been served by the parallel engine — a row that fell back would
# put a sequential time in the speedup column.
if tail -n +3 "$shard_out/shard_0.csv" | grep -v ',Engaged$'; then
    echo "error: the sharded rows above did not engage the parallel engine" >&2
    exit 1
fi
rm -rf "$shard_out"

echo "==> power-cap sweep smoke (BENCH_power.json budget + energy-invariance gates)"
# A reduced-size pass of the `power` experiment (DESIGN.md §3g): replays
# one write-heavy burst under a descending power-budget ladder with
# integer femtojoule accounting, requires every capped run to respect
# its budget in every power-timeline bucket (exact integer check) and
# every run — capped or not — to consume the identical femtojoule
# total. The in-process asserts additionally reconcile each run's
# trace_power.csv timeline against the report's energy totals.
power_out="$(mktemp -d)"
cargo run --release --offline -q -p dloop-bench --bin dloop-experiments -- \
    power --scale 8 --requests 4000 --out "$power_out" >/dev/null
for artifact in BENCH_power.json power_0.csv trace_power.csv; do
    [[ -s "$power_out/$artifact" ]] || {
        echo "error: power sweep did not produce $artifact" >&2
        exit 1
    }
done
grep -q '"all_budgets_respected": true' "$power_out/BENCH_power.json" || {
    echo "error: a capped run exceeded its power budget:" >&2
    cat "$power_out/BENCH_power.json" >&2
    exit 1
}
grep -q '"energy_invariant": true' "$power_out/BENCH_power.json" || {
    echo "error: the power cap changed total energy:" >&2
    cat "$power_out/BENCH_power.json" >&2
    exit 1
}
grep -q '"pass": true' "$power_out/BENCH_power.json" || {
    echo "error: power sweep gate failed:" >&2
    cat "$power_out/BENCH_power.json" >&2
    exit 1
}
power_header="$(head -n 1 "$power_out/power_0.csv")"
[[ "$power_header" == "budget_uw,mrt_ms,makespan_ms,energy_array_fj,energy_bus_fj,energy_total_fj,mean_power_mw,peak_bucket_mw,budget_respected" ]] || {
    echo "error: power_0.csv header drifted: $power_header" >&2
    exit 1
}
power_trace_header="$(head -n 1 "$power_out/trace_power.csv")"
[[ "$power_trace_header" == bucket_start_ms,bucket_end_ms,plane_0_fj,*,total_fj ]] || {
    echo "error: trace_power.csv header drifted: $power_trace_header" >&2
    exit 1
}
rm -rf "$power_out"

echo "==> committed results regenerate (headline + ablation at default flags, byte-equal)"
# Between them these two tables run every FTL (DLOOP, DLOOP-HOT, DFTL,
# FAST, IDEAL and the ablation variants) on the paper's traces, so any
# change that moves a simulated number shows up as a CSV diff here.
check_regenerates() {
    local results="$1"
    shift
    local regen_out
    regen_out="$(mktemp -d)"
    for experiment in "$@"; do
        cargo run --release --offline -q -p dloop-bench --bin dloop-experiments -- \
            "$experiment" --out "$regen_out" >/dev/null
    done
    local csv status=0
    for csv in "$regen_out"/*.csv; do
        cmp "$results/$(basename "$csv")" "$csv" || {
            echo "error: $(basename "$csv") no longer regenerates byte-equal to $results/" >&2
            status=1
        }
    done
    rm -rf "$regen_out"
    return "$status"
}
check_regenerates results headline ablation

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
