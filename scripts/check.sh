#!/usr/bin/env bash
# Full local gate: offline build, tests, lints, benches compile.
# Mirrors what CI would run; everything works with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release, offline)"
cargo build --release --offline --workspace

echo "==> tests (includes the hindex-analysis repository gate)"
cargo test -q --offline --workspace

echo "==> clippy"
cargo clippy --offline --workspace --all-targets -- -D warnings

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

echo "==> benches compile"
cargo bench -p hindex-bench --offline --no-run

echo "==> benchmark harness (perfbench smoke test)"
# perfbench is its own cargo workspace with path dependencies on
# crates/*, so nothing above builds it: an engine API change that
# breaks the harness fails here instead of at benchmark time.
CARGO_TARGET_DIR=.bench_build \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> bench smoke (kernels group, reduced scale)"
scripts/bench.sh /tmp/bench_smoke.json --quick

echo "==> perf smoke (Alg 6 ingest_batch vs recorded baseline)"
# Re-times the cash_update group and fails if Alg 6's ingest_batch
# (coalesce, then every sampler's batched update) regressed more than
# 25% against the ns_per_elem recorded in the committed BENCH_pr7.json.
# Skipped (with a note) if no baseline is committed yet — the gate
# only bites once a baseline exists.
if [ -f BENCH_pr7.json ]; then
    scripts/bench.sh /tmp/bench_bank.json bank
    baseline=$(grep -o '"group": "cash_update", "name": "alg6_l0_bank_x77"[^}]*' \
        BENCH_pr7.json | grep -o '"ns_per_elem": [0-9.]*' | grep -o '[0-9.]*')
    current=$(grep -o '"group": "cash_update", "name": "alg6_l0_bank_x77"[^}]*' \
        /tmp/bench_bank.json | grep -o '"ns_per_elem": [0-9.]*' | grep -o '[0-9.]*')
    echo "    baseline ${baseline} ns/elem, current ${current} ns/elem"
    awk -v b="${baseline}" -v c="${current}" 'BEGIN {
        if (b + 0 == 0) { print "    empty baseline; skipping"; exit 0 }
        if (c > 1.25 * b) {
            printf "    FAIL: bank path regressed %.1f%% (limit 25%%)\n", (c / b - 1) * 100
            exit 1
        }
        printf "    ok (%.1f%% of baseline)\n", c / b * 100
    }'
else
    echo "    no BENCH_pr7.json baseline committed; skipping"
fi

echo "All checks passed."
