#!/bin/sh
# Tier 2: the smokes and quick benches that ride on top of tier-1. Tier-1
# itself (ROADMAP.md: `cargo build --release && cargo test -q`, which the
# workspace's default-members make cover every crate, every suite and the
# db2www binary) runs once, first, offline: the workspace must build and test
# with zero network access (see the zero-dependency policy in
# CONTRIBUTING.md). Exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1 (release build + every suite, offline) =="
cargo build --release --offline && cargo test -q --offline

echo "== size and configuration surface =="
# One place reads DBGW_* (crates/cgi/src/config.rs) and it accepts at most
# the 14 deployment settings; a new knob or a stray env::var fails here.
sh scripts/size.sh --check

# Formatting is part of the gate when rustfmt is installed; a bare toolchain
# without the component still passes the hermetic build+test core.
if cargo fmt --version >/dev/null 2>&1; then
    echo "== fmt =="
    cargo fmt --all -- --check
else
    echo "== fmt == (skipped: rustfmt not installed)"
fi

# Lints gate the same way: every target of every crate, warnings as errors.
if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy =="
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "== clippy == (skipped: clippy not installed)"
fi

echo "== docs (rustdoc warnings are errors) =="
# Public docs must not link private items or ambiguous names.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== minisql property suites, deeper (TESTKIT_CASES=1500) =="
# Tier-1 runs each property at its own seeded count (32-256 cases). Here
# every minisql property — the planner-equivalence, heap, index and dedup
# suites among them — runs 1500 cases; TESTKIT_CASES outranks a props!
# block's config(cases = ...). About 85 s on a 2-core host, build included.
TESTKIT_CASES=1500 cargo test -q --release --offline -p minisql

echo "== result-cache transparency, deeper (TESTKIT_CASES=1500) =="
# The root tests/properties.rs is not part of the minisql step above: the
# cached-vs-uncached property, over respelled statements, runs 1500 cases
# here.
TESTKIT_CASES=1500 cargo test -q --release --offline --test properties cache_is_transparent

echo "== macro lint (the shipped macros stay free of findings) =="
./target/release/dtwlint macros/*.d2w

echo "== observability smoke (traced CGI request) =="
# Run one macro request through the release db2www with tracing on and check
# the JSON-lines sink records the span tree the tentpole promises.
OBS_TMP=$(mktemp -d)
trap 'rm -rf "$OBS_TMP"' EXIT
cat > "$OBS_TMP/db.sql" <<'EOF'
CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80));
INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM');
EOF
cat > "$OBS_TMP/smoke.d2w" <<'EOF'
%SQL{ SELECT url, title FROM urldb WHERE title LIKE '%$(SEARCH)%' %}
%HTML_INPUT{<FORM ACTION="/cgi-bin/db2www/smoke.d2w/report"><INPUT NAME="SEARCH"></FORM>%}
%HTML_REPORT{<H1>Result for request $(DTW_REQUEST_ID)</H1>
%EXEC_SQL
%}
EOF
DBGW_TRACE=1 DBGW_TRACE_FILE="$OBS_TMP/trace.jsonl" \
    DTW_MACRO_DIR="$OBS_TMP" DTW_DB_SCRIPT="$OBS_TMP/db.sql" \
    REQUEST_METHOD=GET PATH_INFO=/smoke.d2w/report QUERY_STRING=SEARCH=IB \
    ./target/release/db2www > "$OBS_TMP/page.out"
grep -q 'http://www.ibm.com' "$OBS_TMP/page.out"
grep -q '<!-- dbgw trace' "$OBS_TMP/page.out"
for span in request parse_macro substitute exec_sql render_report; do
    grep -q "\"name\":\"$span\"" "$OBS_TMP/trace.jsonl" \
        || { echo "missing span $span in trace.jsonl"; exit 1; }
done
echo "observability smoke OK (spans + HTML comment present)"

echo "== overload smoke (worker pool + load shedding) =="
# Burst a 2-worker server past its queue: expect a mix of 200s and 503s with
# Retry-After, and a clean drained shutdown (the example asserts all of it).
cargo run --release --offline --example overload

echo "== executor plan bench (quick run, asserted speedup floors) =="
# E11: hash join vs nested loop and indexed point-lookup join; the bench
# itself asserts the 10x / 5x acceptance floors, so a plan regression fails
# CI here. The JSON lands in the tempdir; the committed BENCH_exec.json is
# regenerated from a full (non-quick) run when the numbers change.
BENCH_QUICK=1 BENCH_JSON="$OBS_TMP/bench_exec.json" \
    cargo bench --offline -p dbgw-bench --bench exec_plan
test -s "$OBS_TMP/bench_exec.json"

echo "== snapshot-read scaling bench (quick run, asserted scaling floor) =="
# E12: mixed Zipf read/write throughput against the snapshot engine at
# 1/2/4/8 threads. The bench asserts the read-scaling floor itself, scaled
# to the cores actually available (>=8 cores demand 4x from 1->8 threads;
# a 1-core box gates on "threads must not collapse throughput"). A revived
# global lock fails CI here. The committed BENCH_concurrency.json is
# regenerated from a full (non-quick) run when the numbers change.
BENCH_QUICK=1 BENCH_JSON="$OBS_TMP/bench_concurrency.json" \
    cargo bench --offline -p dbgw-bench --bench concurrency
grep -q 'engine_read_scaling_8t_over_1t' "$OBS_TMP/bench_concurrency.json"

echo "== observability overhead bench (quick run, asserted <5% cost) =="
# E13: digest table + passive EXPLAIN ANALYZE capture on vs off on the E11
# join workload. The bench asserts the 5% ceiling itself and that rotating
# literals fold into one masked digest shape. The committed BENCH_obs.json
# is regenerated from a full (non-quick) run when the numbers change.
BENCH_QUICK=1 BENCH_JSON="$OBS_TMP/bench_obs.json" \
    cargo bench --offline -p dbgw-bench --bench obs_overhead
grep -q 'obs_overhead_pct' "$OBS_TMP/bench_obs.json"

echo "== WAL bench (quick run, asserted group-commit batching floor) =="
# E14: commit throughput WAL-off vs WAL-on, and group-commit batching at
# 1/4/8 writers. The bench asserts the batching floor itself (at 8 writers,
# strictly fewer than one fsync per commit, with no linger window: the
# batches form while a leader's flush is in flight); a WAL that fsyncs
# every commit individually fails CI here. The committed
# BENCH_wal.json is regenerated from a full (non-quick) run.
BENCH_QUICK=1 BENCH_JSON="$OBS_TMP/bench_wal.json" \
    cargo bench --offline -p dbgw-bench --bench wal
grep -q 'wal_records_per_fsync_8t' "$OBS_TMP/bench_wal.json"

echo "== planner bench (quick run, asserted reorder floor + EXPLAIN smoke) =="
# E15: stats-driven join ordering vs the syntactic order on a 3-way star
# join, plus set-op and window throughput. The bench asserts the 5x reorder
# floor itself and prints the EXPLAIN of the reordered query; CI checks the
# printed plan carries the cost model's chosen JOIN ORDER (dimension table
# first) so a planner that silently stops reordering fails here. The
# committed BENCH_planner.json is regenerated from a full (non-quick) run.
BENCH_QUICK=1 BENCH_JSON="$OBS_TMP/bench_planner.json" \
    cargo bench --offline -p dbgw-bench --bench planner \
    > "$OBS_TMP/bench_planner.log" 2>&1 \
    || { cat "$OBS_TMP/bench_planner.log"; exit 1; }
cat "$OBS_TMP/bench_planner.log"
grep -q 'planner_reorder_speedup' "$OBS_TMP/bench_planner.json"
grep -q 'JOIN ORDER: c -> b -> a' "$OBS_TMP/bench_planner.log"

echo "== HTTP edge bench (quick run, asserted keep-alive + TTFB floors) =="
# E16: hundreds of idle keep-alive connections parked in the epoll loop
# (10k in the full run), /stats p99 asserted with the fleet open, and
# streamed-vs-buffered TTFB on a large %ROW-template report, twice: over
# staged result sets and over result-cache hits on a real minisql table.
# The bench asserts the p99 ceiling and the TTFB floors itself (staged >=3x
# quick, >=10x full; cached >=6x quick, >=20x full); an edge that buffers
# whole reports, or copies a cached result, before the first byte fails CI
# here. The committed BENCH_http.json is regenerated from a full run.
BENCH_QUICK=1 BENCH_JSON="$OBS_TMP/bench_http.json" \
    cargo bench --offline -p dbgw-bench --bench http_edge
grep -q 'http_ttfb_speedup' "$OBS_TMP/bench_http.json"
grep -q 'http_cached_ttfb_speedup' "$OBS_TMP/bench_http.json"

echo "== load rig (quick rounds of all four workloads + the rig's own tests) =="
# The benchmark PRs are judged by (BENCHMARK.json, benchmark/): two short
# rounds per workload with every response checked by the rig's oracle (row
# counts, read-your-writes, acknowledged updates survive SIGKILL); a run that
# is not correct exits non-zero. An executor change that breaks the oracle or
# the rig's build fails here rather than in the pipeline.
for w in small_page scan_report big_report write_mix; do
    bash benchmark/run.sh --workload "$w" --quick \
        > "$OBS_TMP/rig-$w.json" 2> "$OBS_TMP/rig-$w.log" \
        || { cat "$OBS_TMP/rig-$w.log"; exit 1; }
    grep -q '^{"correct":true,' "$OBS_TMP/rig-$w.json"
done
(cd benchmark && cargo test --offline)

echo "== crash-recovery smoke (kill -9 mid-commit-stream) =="
# Durability's acceptance test, end to end on the release binary: run the
# transfer workload against a durable data dir, kill -9 once commits are
# flowing (acks are printed after the fsync, so the log provably has work
# in flight), then reopen and assert the transfer invariant — SUM(balance)
# is exactly what was seeded. Recovery must also cut any torn tail the kill
# left in the log without complaint. Every other transfer is two UPDATEs in
# an explicit transaction, and three kill/verify rounds on the same data dir
# give a kill more chances to land between them.
cargo build --release --offline --example crash_recovery
CRASH_DIR="$OBS_TMP/crash-data"
for round in 1 2 3; do
    DBGW_DATA_DIR="$CRASH_DIR" ./target/release/examples/crash_recovery workload \
        > "$OBS_TMP/crash-workload.log" 2>&1 &
    CRASH_PID=$!
    for _ in $(seq 1 100); do
        grep -q 'acked 200' "$OBS_TMP/crash-workload.log" 2>/dev/null && break
        sleep 0.1
    done
    grep -q 'acked 200' "$OBS_TMP/crash-workload.log" \
        || { echo "crash workload never reached 200 acked commits (round $round)"; kill -9 "$CRASH_PID"; exit 1; }
    kill -9 "$CRASH_PID"
    wait "$CRASH_PID" 2>/dev/null || true
    DBGW_DATA_DIR="$CRASH_DIR" ./target/release/examples/crash_recovery verify
done
echo "crash-recovery smoke OK (3 × kill -9 survived, balance invariant holds)"

echo "== /stats smoke (digest table over live HTTP) =="
# Boot the demo site on an ephemeral port, run one CGI query through it,
# then scrape /stats: the Prometheus text must carry a digest row and the
# SLO gauges, and the HTML view must render the digest table.
cargo build --release --offline --example serve
DBGW_SLO_P99_MS=250 DBGW_SLO_ERROR_BUDGET=0.01 \
    ./target/release/examples/serve 0 6 > "$OBS_TMP/serve.log" 2> "$OBS_TMP/serve.err" &
SERVE_PID=$!
ADDR=
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's|^serving on http://||p' "$OBS_TMP/serve.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve example never reported its address"; exit 1; }
curl -fsS "http://$ADDR/cgi-bin/db2www/urlquery.d2w/report?SEARCH=ibm" > /dev/null
curl -fsS "http://$ADDR/stats?format=prometheus" > "$OBS_TMP/stats.prom"
curl -fsS "http://$ADDR/stats" > "$OBS_TMP/stats.html"
wait "$SERVE_PID"
grep -q '^dbgw_digest_calls_total{digest="' "$OBS_TMP/stats.prom"
grep -q '^dbgw_slo_burn_rate' "$OBS_TMP/stats.prom"
grep -q '<H2>Query digests</H2>' "$OBS_TMP/stats.html"
# The effective configuration is on display: first line of stderr, and the
# same table on the HTML page.
head -n 1 "$OBS_TMP/serve.err" | grep -q '^config: .*DBGW_SLO_P99_MS=250 (set)'
grep -q '<TD>DBGW_SLO_P99_MS</TD><TD>250</TD><TD>set</TD>' "$OBS_TMP/stats.html"
echo "/stats smoke OK (digest row + SLO gauges + configuration served)"

echo "All hermetic checks passed."
