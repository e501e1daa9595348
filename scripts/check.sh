#!/usr/bin/env bash
# Full local gate: offline build, tests, lints, bench smokes, and a perf
# gate against the base commit. Everything works with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release, offline)"
cargo build --release --offline --workspace

echo "==> tests (includes tests/source_rules.rs)"
cargo test -q --offline --workspace

echo "==> clippy"
cargo clippy --offline --workspace --all-targets -- -D warnings
# The invariant layer's helpers are library code compiled only under the
# feature, so the lint set checks them in a second pass.
cargo clippy --offline --workspace --all-targets --features debug_invariants -- -D warnings

echo "==> observability layer (metrics, tracing, determinism)"
cargo test -q --offline -p hindex-obs
cargo test -q --offline -p hindex --test observability

echo "==> hindex metrics smoke (non-empty Prometheus exposition)"
cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    metrics --shards 4 --n 5000 < /dev/null \
    | grep -q "hindex_engine_items_total 5000"

echo "==> chaos smoke (seeded kill-sweep must answer bit-identically)"
# A supervised run that kills every shard mid-stream must print the
# same `digest` line as an untouched run of the same stream and seed:
# restart from a recovery cut + replay is exact, not approximate.
chaos_stream=$(seq 0 3999 | awk '{ print $1 % 170, 1 + $1 % 3 }')
clean_digest=$(echo "${chaos_stream}" | cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    engine --algorithm exact --shards 3 --batch 32 | grep '^digest')
chaos_digest=$(echo "${chaos_stream}" | cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    engine --algorithm exact --shards 3 --batch 32 --faults "sweep@100=200" | grep '^digest')
echo "    clean ${clean_digest#digest    : }  chaos ${chaos_digest#digest    : }"
[ "${clean_digest}" = "${chaos_digest}" ] || {
    echo "    FAIL: chaos digest diverged from the clean run"; exit 1; }
echo "${chaos_stream}" | cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    engine --algorithm exact --shards 3 --batch 32 --faults "sweep@100=200" \
    | grep -q "degraded  : no" || {
    echo "    FAIL: kill-sweep did not heal every shard"; exit 1; }
# The same contract on the Alg 6 sketch with a read plane attached, so
# the sketch state and the published view are healed at the CLI
# boundary too: the answering view must match the clean run's.
sketch_stream=$(seq 0 5999 | awk '{ print ($1*7919) % 900, 1 + $1 % 3 }')
sketch_clean=$(echo "${sketch_stream}" | cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    engine --shards 2 --batch 64 --publish-interval 512 | grep '^digest')
sketch_chaos=$(echo "${sketch_stream}" | cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    engine --shards 2 --batch 64 --publish-interval 512 --faults "sweep@700=900")
sketch_chaos_digest=$(echo "${sketch_chaos}" | grep '^digest')
echo "    sketch clean ${sketch_clean#digest    : }  chaos ${sketch_chaos_digest#digest    : }"
[ "${sketch_clean}" = "${sketch_chaos_digest}" ] || {
    echo "    FAIL: Alg 6 chaos digest diverged from the clean run"; exit 1; }
echo "${sketch_chaos}" | grep -q "degraded  : no" || {
    echo "    FAIL: Alg 6 kill-sweep did not heal every shard"; exit 1; }

echo "==> parse-path smoke (the chaos stream, re-emitted, must answer identically)"
# The update reader takes plain `paper delta` lines on a byte fast path
# and every other line on a general path (crates/cli/src/io.rs). Tabs
# and CRLF line ends stay on the fast path; a trailing comment on every
# line, plus comment-only lines, send each line to the general path.
# Both must print the clean run's digest.
fast_digest=$(echo "${chaos_stream}" | awk '{ printf "%s\t%s\r\n", $1, $2 }' \
    | cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    engine --algorithm exact --shards 3 --batch 32 | grep '^digest')
general_digest=$(echo "${chaos_stream}" | awk '{ print $0, "# cite"; if (NR % 50 == 0) print "# note" }' \
    | cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    engine --algorithm exact --shards 3 --batch 32 | grep '^digest')
echo "    fast ${fast_digest#digest    : }  general ${general_digest#digest    : }"
[ "${fast_digest}" = "${clean_digest}" ] && [ "${general_digest}" = "${clean_digest}" ] || {
    echo "    FAIL: a re-emitted stream diverged from the clean run"; exit 1; }

echo "==> chaos tests (fault injection, replay, honest degradation)"
cargo test -q --offline -p hindex --test engine_faults

echo "==> read plane (concurrent readers, monotone epochs, bit-identity)"
cargo test -q --offline -p hindex --test read_plane
# Cross-check at the CLI boundary: answering from the final published
# view (--publish-interval) must print the same digest as forcing a
# synchronous merge of the identical run (--fresh on).
plane_stream=$(seq 0 2999 | awk '{ print $1 % 140, 1 + $1 % 2 }')
plane_digest=$(echo "${plane_stream}" | cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    engine --algorithm exact --shards 3 --batch 32 --publish-interval 256 | grep '^digest')
fresh_digest=$(echo "${plane_stream}" | cargo run -q --release --offline -p hindex-cli --bin hindex -- \
    engine --algorithm exact --shards 3 --batch 32 --publish-interval 256 --fresh on | grep '^digest')
echo "    published ${plane_digest#digest    : }  fresh ${fresh_digest#digest    : }"
[ "${plane_digest}" = "${fresh_digest}" ] || {
    echo "    FAIL: published view diverged from the synchronous merge"; exit 1; }

echo "==> debug invariant layer (feature-gated assertions + proptests)"
cargo test -q --offline -p hindex-hashing --features debug_invariants
cargo test -q --offline -p hindex-sketch --features debug_invariants
# The gated checks inside these crates (e.g. the `CashTable` lockstep
# check in cash_table.rs) run only in their own tests. The digest
# asserts and tests/invariants.rs also run in every plain `cargo test`;
# here they run with the assertion layer armed.
cargo test -q --offline -p hindex-core -p hindex-baseline -p hindex-engine \
    --features debug_invariants
cargo test -q --offline -p hindex --features debug_invariants \
    --test invariants --test engine_schedules --test adversarial \
    --test snapshot_roundtrip --test engine_recovery --test observability \
    --test read_plane

echo "==> concurrency audit (best effort: miri / thread sanitizer)"
# Both need a nightly toolchain; this gate must pass on a stock stable
# install, so each stage is attempted and skipped cleanly if absent.
# The engine crate's own tests include the ReadHandle concurrent-reader
# stress, so either tool audits the read plane's publish path.
if cargo +nightly miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test --offline -p hindex-engine
else
    echo "    miri unavailable (needs nightly + 'cargo miri'); skipping"
fi
if cargo +nightly --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q "rust-src (installed)"; then
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test --offline -p hindex-engine \
        -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')"
else
    echo "    thread sanitizer unavailable (needs nightly + rust-src); skipping"
fi

echo "==> benchmark harness (perfbench smoke test)"
# perfbench is its own cargo workspace with path dependencies on
# crates/*, so nothing above builds it: an engine API change that
# breaks the harness fails here instead of at benchmark time.
CARGO_TARGET_DIR=.bench_build \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> bench smoke (throughput kernels group, reduced scale)"
cargo bench -q -p hindex-bench --offline --bench throughput -- --quick

echo "==> perf gate (perfbench: this change vs its base commit)"
# Runs perfbench, unchanged, on the change and on its base commit on
# the same host in the same minutes, so host speed steps cancel. The
# base is HEAD when the working tree has uncommitted changes, else
# HEAD's parent. Its tree is exported with `git archive` under
# target/perf_base and its perfbench is built there, offline (about
# 30 s cold on a 2-core host; a rerun against the same base reuses it).
# Each round runs every BENCHMARK.json workload four times in ABBA
# order (base, change, change, base) on the round's seed. Every
# end-to-end metric is judged by BENCHMARK.json's `better` and `bound`
# on its worse-direction ratio (change/base when lower is better,
# base/change when higher is): a pairing fails when the median ratio
# over the rounds exceeds 1 + bound. A pairing whose base-vs-base
# spread (median |A2/A1 - 1| within a round) exceeds its bound cannot
# be told from noise here: it prints as unresolved, with its spread.
# The stage also fails when a change run reports `"correct": false`,
# which any larger failed share than the base's implies. When the
# change edits perfbench/ or BENCHMARK.json, the two sides run
# different benchmarks, so the stage prints UNGATED and runs nothing.
if git diff --quiet HEAD --; then base=$(git rev-parse HEAD~1); else base=$(git rev-parse HEAD); fi
if ! git diff --quiet "${base}" -- perfbench BENCHMARK.json; then
    echo "    UNGATED: perfbench/ or BENCHMARK.json differs from the base ${base:0:12}, so the sides run different benchmarks"
else
    rounds=3 seconds=3 # round r runs every leg on seed r
    stage_start=$(date +%s)
    base_dir=target/perf_base
    if [ "$(cat "${base_dir}/commit" 2>/dev/null)" != "${base}" ]; then
        rm -rf "${base_dir}/src"
        mkdir -p "${base_dir}/src"
        git archive "${base}" | tar -x -C "${base_dir}/src"
        echo "${base}" > "${base_dir}/commit"
    fi
    CARGO_TARGET_DIR="${base_dir}/target" \
        cargo build -q --release --offline --manifest-path "${base_dir}/src/perfbench/Cargo.toml"
    CARGO_TARGET_DIR=.bench_build \
        cargo build -q --release --offline --manifest-path perfbench/Cargo.toml
    echo "    base ${base:0:12} and change built in $(( $(date +%s) - stage_start )) s"
    workloads=$(grep -o '"name": "[a-z_]*", "why"' BENCHMARK.json | cut -d'"' -f4)
    gates=$(grep -o '"name": "[a-z0-9_]*", "unit": "[^"]*", "better": "[a-z]*", "bound": [0-9.]*' BENCHMARK.json \
        | awk -F'"' '{ print $4, $12, substr($15, 3) }')
    runs=$(mktemp)
    for round in $(seq 1 "${rounds}"); do
        for workload in ${workloads}; do
            for leg in A1 B1 B2 A2; do
                case "${leg}" in
                    A*) exe="${base_dir}/target/release/hindex-perfbench" ;;
                    *) exe=.bench_build/release/hindex-perfbench ;;
                esac
                result=$("${exe}" --workload "${workload}" --seed "${round}" \
                    --seconds "${seconds}" --trace 0 | tail -n 1)
                echo "${workload} ${round} ${leg} ${result}" >> "${runs}"
            done
        done
    done
    gate_failed=0
    awk -v gates="${gates}" -v rounds="${rounds}" '
        function median(v, n,   i, j, t) {
            for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j-1] > v[j]; j--) {
                t = v[j]; v[j] = v[j-1]; v[j-1] = t }
            return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
        }
        function ratio(a, b) { return a == b ? 1 : b > 0 ? a / b : 1e9 }
        function worse(better, change, base) {
            return better == "lower" ? ratio(change, base) : ratio(base, change)
        }
        {
            if (!($1 in seen)) { seen[$1]; order[++nw] = $1 }
            if ($3 ~ /^B/ && $0 ~ /"correct": false/) {
                printf "    %s round %d %s: change run reports \"correct\": false\n", $1, $2, $3
                failed = 1
            }
            for (i = 1; i <= ng; i++) {
                if (match($0, "\"" name[i] "\": {\"value\": [^,}]*")) {
                    v = substr($0, RSTART, RLENGTH); sub(/.*: /, "", v)
                    value[$1, name[i], $2, $3] = v
                }
            }
        }
        BEGIN {
            ng = split(gates, line, "\n")
            for (i = 1; i <= ng; i++) { split(line[i], f, " "); name[i] = f[1]; better[i] = f[2]; bound[i] = f[3] }
            split("A1 B1 B2 A2", legs, " ")
        }
        END {
            for (k = 1; k <= nw; k++) for (i = 1; i <= ng; i++) {
                w = order[k]; m = name[i]; nr = 0; missing = 0
                for (r = 1; r <= rounds; r++) {
                    for (l = 1; l <= 4; l++) {
                        x[legs[l]] = value[w, m, r, legs[l]]
                        if (x[legs[l]] == "" || x[legs[l]] == "null") missing = 1
                    }
                    if (missing) break
                    ratios[++nr] = worse(better[i], x["B1"] + 0, x["A1"] + 0)
                    ratios[++nr] = worse(better[i], x["B2"] + 0, x["A2"] + 0)
                    d = ratio(x["A2"] + 0, x["A1"] + 0) - 1
                    spread[r] = d < 0 ? -d : d
                }
                if (missing) {
                    printf "    %-16s %-18s no value: unresolved\n", w, m
                    continue
                }
                q = median(ratios, nr); s = median(spread, rounds)
                if (s > bound[i]) {
                    printf "    %-16s %-18s %.3f  unresolved: base spread %.1f%% > %g%%\n", w, m, q, s * 100, bound[i] * 100
                } else if (q > 1 + bound[i]) {
                    printf "    %-16s %-18s %.3f  FAIL (> %g; base spread %.1f%%)\n", w, m, q, 1 + bound[i], s * 100
                    failed = 1
                } else {
                    printf "    %-16s %-18s %.3f  ok (base spread %.1f%%)\n", w, m, q, s * 100
                }
            }
            exit failed
        }' "${runs}" || gate_failed=1
    rm -f "${runs}"
    echo "    ${rounds} ABBA rounds in $(( $(date +%s) - stage_start )) s"
    [ "${gate_failed}" = 0 ] || { echo "    FAIL: the change is worse than the base beyond a BENCHMARK.json bound"; exit 1; }
fi

echo "All checks passed."
