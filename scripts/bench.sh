#!/usr/bin/env bash
# Runs the full throughput bench and writes a machine-readable summary
# to BENCH_pr7.json at the repo root (override with $1).
#
# JSON schema ("hindex-bench/v1"):
#
#   {
#     "schema": "hindex-bench/v1",
#     "entries": [
#       {
#         "group":        "kernels",          // bench group name
#         "name":         "l0_update_batch",  // routine name within group
#         "elems":        500000,             // stream updates per run
#         "median_ns":    69850000,           // median wall time per run
#         "ns_per_elem":  139.7,              // median_ns / elems
#         "items_per_sec": 7158196.1          // 1e9 * elems / median_ns
#       },
#       ...
#     ],
#     "shard_scaling": [
#       {
#         "group":  "kernels",
#         "base":   "turnstile_shards",       // family: <base>_shards_<n>
#         "shards": 4,
#         "speedup_vs_1shard": 2.31           // ns/elem(1 shard) / ns/elem(n)
#       },
#       ...
#     ]
#   }
#
# `entries` carries every routine the bench timed (kernels + substrates +
# algorithms + engine groups); `shard_scaling` is derived from any family
# of entries named `<base>_shards_<n>`, normalised to the 1-shard run.
#
# Pass --quick to run only the kernels group at reduced scale (smoke
# mode, used by scripts/check.sh). Pass `bank` to run only the
# `cash_update` group (the Alg 6 ℓ₀-bank ingest paths) at full size —
# the quick way to re-measure Alg 6's `ingest_batch` (scripts/check.sh
# compares that group against the base commit).
#
# Full runs (no --quick / bank) also regenerate the complete
# experiments log under target/experiments_output.txt — it is build
# output, not a tracked artifact (EXPERIMENTS.md quotes the numbers
# that matter).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_pr7.json"
EXTRA=()
FULL=1
for arg in "$@"; do
    case "${arg}" in
        --quick) EXTRA+=("--quick"); FULL=0 ;;
        bank) EXTRA+=("--only" "cash_update"); FULL=0 ;;
        *) OUT="${arg}" ;;
    esac
done

echo "==> throughput bench -> ${OUT}"
# Cargo runs the bench binary with the package dir as cwd; absolutize
# so the JSON lands where the caller asked, not in crates/bench/.
case "${OUT}" in
    /*) ;;
    *) OUT="$(pwd)/${OUT}" ;;
esac
cargo bench -p hindex-bench --offline --bench throughput -- --json "${OUT}" "${EXTRA[@]+"${EXTRA[@]}"}"
echo "==> wrote ${OUT}"

if [ "${FULL}" = 1 ]; then
    echo "==> experiments all -> target/experiments_output.txt"
    mkdir -p target
    cargo run -q --release --offline -p hindex-bench --bin experiments -- all \
        > target/experiments_output.txt
    echo "==> wrote target/experiments_output.txt"
fi
