#!/bin/sh
# The full set: one process per workload, extra arguments passed through
# (for example `--seed 8 --out /tmp/seed8`). Stops at the first workload
# that fails its correctness checks.
set -e
here=$(dirname "$0")
for workload in oltp_cmt overwrite_gc overwrite_gc_shard2 qos_ncq host_mix; do
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
        --workload "$workload" "$@"
done
