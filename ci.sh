#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 verify.
# Everything here runs offline against the vendored workspace.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings, broken intra-doc links included, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> tier-1: release build (default-members: every workspace crate, ppm, experiments and races included)"
cargo build --release

echo "==> tier-1: test suite (every workspace crate)"
# Scalar-vs-wide kernel identity is covered by explicit tests in this run
# (the audit's scalar arm, vertical/kernel/incremental unit tests), so the
# suite runs once.
cargo test -q

echo "==> counting kernels under native codegen (ppm-core tests, -C target-cpu=native)"
# Native codegen changes what the autovectorizer emits for the counting
# loops (hardware popcnt, AVX2); every bit-identity test must hold there
# too. A target dir of its own keeps the portable build's artifacts.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native cargo test -q -p ppm-core

echo "==> benchmark self-tests (perfbench is a package of its own)"
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> observability smoke: mine --trace --metrics-out on a generated dataset"
# Hermetic: everything lands in a temp dir that is removed on exit. The
# emitted JSON-lines schema itself is validated by the repo's own parser in
# the ppm-cli test `metrics_out_writes_parseable_summary`; this step checks
# the shipped binary end to end.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/ppm generate --length 3000 --period 25 --max-pat-length 4 \
  --f1 8 --seed 7 --out "$smoke_dir/smoke.ppmc"
./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
  --min-conf 0.6 --trace --metrics-out "$smoke_dir/metrics.json" \
  >"$smoke_dir/stdout.log" 2>"$smoke_dir/trace.log"
grep -q "frequent patterns" "$smoke_dir/stdout.log"
test -s "$smoke_dir/trace.log"   # --trace wrote the span tree to stderr
grep -q '"type":"summary"' "$smoke_dir/metrics.json"
grep -q '"mining_stats"' "$smoke_dir/metrics.json"
./target/release/ppm info --input "$smoke_dir/smoke.ppmc" --period 25 \
  | grep -q "hit-set bound"

echo "==> verification smoke: audit, verify, quarantine, checkpoint integrity"
# Honest runs audit clean on every engine; the cross-check diffs all six
# arms of the view path: the hit set counted by bitmap and by tree walk,
# Apriori, and the vertical, forced-scalar and incremental vertical arms.
for engine in hitset apriori vertical; do
  ./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
    --min-conf 0.6 --engine "$engine" --audit full >"$smoke_dir/audit.log"
  grep -q "audit: clean" "$smoke_dir/audit.log"
  grep -q "cross-check: 6 engines" "$smoke_dir/audit.log"
done
# `incremental` names the daemon's live index, not an engine: mine
# rejects it like any unknown engine (exit 2).
incremental_status=0
./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
  --min-conf 0.6 --engine incremental >/dev/null 2>&1 || incremental_status=$?
test "$incremental_status" -eq 2
# An exported result file re-verifies against its series.
./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
  --min-conf 0.6 --tsv >"$smoke_dir/patterns.tsv"
./target/release/ppm verify --input "$smoke_dir/smoke.ppmc" \
  --patterns "$smoke_dir/patterns.tsv" --period 25 --min-conf 0.6 \
  | grep -q "verify: clean"
# A deliberately perturbed count must fail the audit with a non-zero exit.
if ./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
  --min-conf 0.6 --audit --perturb-count 0 >"$smoke_dir/perturb.log" 2>&1; then
  echo "perturbed mine was not caught by the audit" >&2; exit 1
fi
grep -q "count mismatch" "$smoke_dir/perturb.log"
# Quarantine skips injected garbage and keeps mining; exit code 4 marks
# the printed counts as sound lower bounds. Strict fails fast instead.
# (Capture to a file: the quarantine report prints before mining, so a
# `grep -q` pipe would close early and EPIPE the miner under pipefail.)
quarantine_status=0
./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
  --min-conf 0.6 --quarantine --inject-garbage 3 \
  >"$smoke_dir/quarantine.log" || quarantine_status=$?
test "$quarantine_status" -eq 4
grep -q "quarantined 1 instants" "$smoke_dir/quarantine.log"
if ./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
  --min-conf 0.6 --strict --inject-garbage 3 >/dev/null 2>&1; then
  echo "strict mode accepted garbage input" >&2; exit 1
fi
# A corrupted sweep checkpoint is rejected, not silently resumed.
./target/release/ppm sweep --input "$smoke_dir/smoke.ppmc" --from 24 --to 26 \
  --min-conf 0.6 --checkpoint "$smoke_dir/sweep.ckpt" >/dev/null
sed -i 's/^period 24 /period 99 /' "$smoke_dir/sweep.ckpt"  # edit a row body; its checksum now lies
if ./target/release/ppm sweep --input "$smoke_dir/smoke.ppmc" --from 24 --to 26 \
  --min-conf 0.6 --checkpoint "$smoke_dir/sweep.ckpt" >/dev/null 2>"$smoke_dir/ckpt.log"; then
  echo "corrupted checkpoint was accepted" >&2; exit 1
fi
grep -qi "checksum" "$smoke_dir/ckpt.log"
# Out of core: every engine mines the smoke store with --stream,
# re-scanning the file per pass, to the same pattern lines and the same
# series_scans (the header line) as the in-memory mine of the store.
# Apriori honours the deadline guard like the two-scan engines: exit 3
# with partial progress.
for engine in hitset apriori vertical; do
  ./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
    --min-conf 0.6 --engine "$engine" --limit 100000 \
    | grep -E '^  |frequent patterns' >"$smoke_dir/memory.lines"
  ./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
    --min-conf 0.6 --engine "$engine" --limit 100000 --stream \
    | grep -E '^  |frequent patterns' >"$smoke_dir/stream.lines"
  grep -q '^  ' "$smoke_dir/memory.lines"
  diff "$smoke_dir/memory.lines" "$smoke_dir/stream.lines"
done
# .ppmc and .txt are the only series formats: the removed block-binary
# format is a usage error (exit 2) as a --to name and as an input.
removed_status=0
./target/release/ppm convert --input "$smoke_dir/smoke.ppmc" --to binary \
  --out "$smoke_dir/removed.bin" >/dev/null 2>&1 || removed_status=$?
test "$removed_status" -eq 2
cp "$smoke_dir/smoke.ppmc" "$smoke_dir/old.ppms"
removed_status=0
./target/release/ppm mine --input "$smoke_dir/old.ppms" --period 25 \
  --min-conf 0.6 >/dev/null 2>&1 || removed_status=$?
test "$removed_status" -eq 2
deadline_status=0
./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" --period 25 \
  --min-conf 0.6 --engine apriori --deadline-ms 0 \
  >"$smoke_dir/deadline.log" || deadline_status=$?
test "$deadline_status" -eq 3
grep -q "mining aborted" "$smoke_dir/deadline.log"

echo "==> experiments smoke: the paper's evaluation at --quick sizes"
# Every experiment panics when two algorithms disagree, so this doubles as
# a correctness check; the full-size tables regenerate EXPERIMENTS.md.
./target/release/experiments --quick >"$smoke_dir/experiments.log"
grep -q "E9 — extensions" "$smoke_dir/experiments.log"  # the last experiment ran

# Continuous ingestion end to end (ppm append, mine --follow, the daemon's
# append op and live index) runs in tier-1: crates/cli/tests/ingestion.rs.

echo "==> daemon smoke: serve/query, metrics scrape, flight dump, guard trip, quarantine, kill -9 recovery, SIGTERM drain"
# The daemon serves .ppmc stores; its mine answers must be byte-identical
# to direct `ppm mine` on the same store. --test-faults unlocks the
# fault-injection ops the smoke leans on (inject_garbage).
for eng in hitset apriori vertical; do
  for period in 24 25 26; do
    ./target/release/ppm mine --input "$smoke_dir/smoke.ppmc" \
      --period "$period" --min-conf 0.6 --engine "$eng" \
      >"$smoke_dir/direct-$eng-$period.log"
  done
done
./target/release/ppm serve --stores "$smoke_dir/smoke.ppmc" --port 0 \
  --cache "$smoke_dir/results.ppmcache" --test-faults \
  --metrics-out "$smoke_dir/metrics.prom" \
  --access-log "$smoke_dir/access.jsonl" --slow-ms 0 \
  --flight-dump "$smoke_dir/flight.jsonl" \
  >"$smoke_dir/serve1.log" &
serve_pid=$!
for _ in $(seq 50); do
  grep -q "listening on tcp" "$smoke_dir/serve1.log" 2>/dev/null && break
  sleep 0.1
done
port="$(sed -n 's/^listening on tcp .*:\([0-9][0-9]*\) .*/\1/p' "$smoke_dir/serve1.log")"
test -n "$port"
# Nine concurrent clients (three engines x three periods) hammer the one
# shared view at once; each completed answer must diff clean against the
# direct baseline.
query_pids=()
for eng in hitset apriori vertical; do
  for period in 24 25 26; do
    ./target/release/ppm query --port "$port" --store smoke \
      --period "$period" --min-conf 0.6 --engine "$eng" \
      >"$smoke_dir/query-$eng-$period.log" &
    query_pids+=("$!")
  done
done
for pid in "${query_pids[@]}"; do wait "$pid"; done
for eng in hitset apriori vertical; do
  for period in 24 25 26; do
    cmp "$smoke_dir/direct-$eng-$period.log" "$smoke_dir/query-$eng-$period.log"
  done
done
# Observability under load: the stats op reports real latency histograms,
# and the metrics op serves the same state as Prometheus text exposition.
./target/release/ppm query --port "$port" --op stats \
  >"$smoke_dir/daemon-stats.log"
grep -q "latency.queue_wait: n=" "$smoke_dir/daemon-stats.log"
grep -q "latency.service: n=" "$smoke_dir/daemon-stats.log"
grep -Eq "latency\.service: .* p50=[0-9]+us .* p95=[0-9]+us p99=[0-9]+us" \
  "$smoke_dir/daemon-stats.log"
./target/release/ppm query --port "$port" --op metrics \
  >"$smoke_dir/daemon-metrics.log"
grep -q 'ppm_serve_queue_wait_us_bucket{le="' "$smoke_dir/daemon-metrics.log"
grep -q "ppm_serve_queue_wait_us_p95 " "$smoke_dir/daemon-metrics.log"
grep -q "ppm_serve_service_us_p50 " "$smoke_dir/daemon-metrics.log"
grep -q "ppm_serve_service_us_p99 " "$smoke_dir/daemon-metrics.log"
served="$(sed -n 's/^ppm_serve_served_total \([0-9]*\)$/\1/p' "$smoke_dir/daemon-metrics.log")"
if [ -z "$served" ] || [ "$served" -lt 9 ]; then
  echo "expected ppm_serve_served_total >= 9 after the concurrent clients, got '${served}'" >&2
  exit 1
fi
# Every access-log line must be one valid JSON document with the fixed
# fields; --slow-ms 0 forces full span detail onto each mine line.
python3 - "$smoke_dir/access.jsonl" <<'PYEOF'
import json, sys
mines = 0
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        for key in ("at_us", "op", "outcome", "queue_us", "service_us"):
            assert key in rec, f"missing {key}: {line!r}"
        if rec["op"] == "mine" and rec["outcome"] == "ok":
            mines += 1
            assert rec.get("slow") is True, line
            assert isinstance(rec.get("spans"), list), line
assert mines >= 9, f"expected >= 9 ok mine lines, got {mines}"
PYEOF
# SIGUSR1 dumps the flight recorder: a header line naming the trigger,
# then one valid JSON line per ring-buffer event.
kill -USR1 "$serve_pid"
for _ in $(seq 50); do
  test -s "$smoke_dir/flight.jsonl" 2>/dev/null && break
  sleep 0.1
done
python3 - "$smoke_dir/flight.jsonl" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(l) for l in f]
assert lines, "flight dump is empty"
head = lines[0]
assert head["kind"] == "flight_dump" and head["reason"] == "usr1", head
assert len(lines) > 1, "flight dump carries no events"
assert any(e.get("name") == "serve.request" for e in lines[1:]), \
    "no serve.request event in the flight dump"
PYEOF
# A resource-guard trip comes back as a typed partial-result error (exit 3
# with partial progress), and the daemon keeps serving afterwards.
# (--no-cache: a warm cache entry would answer before the guard can trip.)
guard_status=0
./target/release/ppm query --port "$port" --store smoke --period 25 \
  --min-conf 0.6 --deadline-ms 0 --no-cache \
  >"$smoke_dir/daemon-guard.log" || guard_status=$?
test "$guard_status" -eq 3
grep -q "partial progress" "$smoke_dir/daemon-guard.log"
# Injected garbage is quarantined at the scan boundary (exit 4, counts are
# sound lower bounds) and bypasses the cache.
dq_status=0
./target/release/ppm query --port "$port" --store smoke --period 25 \
  --min-conf 0.6 --quarantine --inject-garbage 3 --show-cached \
  >"$smoke_dir/daemon-quarantine.log" || dq_status=$?
test "$dq_status" -eq 4
grep -q "quarantined 1 instants" "$smoke_dir/daemon-quarantine.log"
grep -q "cached: bypass" "$smoke_dir/daemon-quarantine.log"
# Crash-safety: kill -9 (no drain, no graceful flush) must leave a cache a
# fresh daemon can recover warm — every completed insert was published
# atomically.
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
test -s "$smoke_dir/results.ppmcache"
./target/release/ppm serve --stores "$smoke_dir/smoke.ppmc" --port 0 \
  --cache "$smoke_dir/results.ppmcache" >"$smoke_dir/serve2.log" &
serve_pid=$!
for _ in $(seq 50); do
  grep -q "listening on tcp" "$smoke_dir/serve2.log" 2>/dev/null && break
  sleep 0.1
done
grep -q "warm entries" "$smoke_dir/serve2.log"
if grep -q "(0 warm entries)" "$smoke_dir/serve2.log"; then
  echo "kill -9 lost the result cache" >&2; exit 1
fi
port="$(sed -n 's/^listening on tcp .*:\([0-9][0-9]*\) .*/\1/p' "$smoke_dir/serve2.log")"
test -n "$port"
# The recovered cache answers the same query byte-identically...
./target/release/ppm query --port "$port" --store smoke --period 25 \
  --min-conf 0.6 >"$smoke_dir/query-warm.log"
cmp "$smoke_dir/direct-hitset-25.log" "$smoke_dir/query-warm.log"
# ...and reports it came from the warm cache, not a re-mine.
./target/release/ppm query --port "$port" --store smoke --period 25 \
  --min-conf 0.6 --show-cached >"$smoke_dir/query-cached.log"
grep -q "cached: hit" "$smoke_dir/query-cached.log"
# SIGTERM drains and exits 0 with a clean-stop banner.
kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q "daemon stopped cleanly" "$smoke_dir/serve2.log"

echo "==> chaos smoke: replicated serve, seeded chaos proxy, SIGKILL failover"
# Two replicas of the same store, bounded caches. Replica A is reachable
# only through `ppm chaos` (a fixed-seed fault schedule: delays,
# truncations, corruptions, duplicates, severs), and is SIGKILLed
# mid-stream; the failover client must absorb all of it with stdout
# byte-identical to the direct `ppm mine` baselines captured above.
./target/release/ppm serve --stores "$smoke_dir/smoke.ppmc" --port 0 \
  --cache-max-entries 4 >"$smoke_dir/serveA.log" &
replica_a=$!
./target/release/ppm serve --stores "$smoke_dir/smoke.ppmc" --port 0 \
  --cache-max-entries 4 >"$smoke_dir/serveB.log" &
replica_b=$!
for f in serveA serveB; do
  for _ in $(seq 50); do
    grep -q "listening on tcp" "$smoke_dir/$f.log" 2>/dev/null && break
    sleep 0.1
  done
done
port_a="$(sed -n 's/^listening on tcp .*:\([0-9][0-9]*\) .*/\1/p' "$smoke_dir/serveA.log")"
port_b="$(sed -n 's/^listening on tcp .*:\([0-9][0-9]*\) .*/\1/p' "$smoke_dir/serveB.log")"
test -n "$port_a" && test -n "$port_b"
./target/release/ppm chaos --upstream "127.0.0.1:$port_a" --port 0 \
  --seed 3405 --fault-percent 80 --delay-ms 20 >"$smoke_dir/chaos.log" &
chaos_pid=$!
for _ in $(seq 50); do
  grep -q "listening on tcp" "$smoke_dir/chaos.log" 2>/dev/null && break
  sleep 0.1
done
chaos_port="$(sed -n 's/^listening on tcp .*:\([0-9][0-9]*\)$/\1/p' "$smoke_dir/chaos.log")"
test -n "$chaos_port"
endpoints="127.0.0.1:$chaos_port,127.0.0.1:$port_b"
# Phase 1: both replicas up, faults raging on A's path. Every answer must
# still match the direct baseline exactly (the client's retry note goes
# to stderr, so stdout stays diffable).
: >"$smoke_dir/chaos-client.log"
for eng in hitset apriori vertical; do
  for period in 24 25; do
    ./target/release/ppm query --endpoints "$endpoints" --store smoke \
      --period "$period" --min-conf 0.6 --engine "$eng" \
      --retries 6 --backoff-ms 5 --backoff-max-ms 50 --seed 7 \
      >"$smoke_dir/chaos-$eng-$period.log" 2>>"$smoke_dir/chaos-client.log"
    cmp "$smoke_dir/direct-$eng-$period.log" "$smoke_dir/chaos-$eng-$period.log"
  done
done
# Phase 2: SIGKILL replica A mid-stream — no drain, no goodbye. The
# remaining queries must fail over to B and still match the baselines.
kill -9 "$replica_a"
wait "$replica_a" 2>/dev/null || true
for eng in hitset apriori vertical; do
  ./target/release/ppm query --endpoints "$endpoints" --store smoke \
    --period 26 --min-conf 0.6 --engine "$eng" \
    --retries 6 --backoff-ms 5 --backoff-max-ms 50 --seed 7 \
    >"$smoke_dir/chaos-$eng-26.log" 2>>"$smoke_dir/chaos-client.log"
  cmp "$smoke_dir/direct-$eng-26.log" "$smoke_dir/chaos-$eng-26.log"
done
grep -q "failover(s)" "$smoke_dir/chaos-client.log"
# Readiness probe: the survivor is healthy, no stores quarantined.
./target/release/ppm query --port "$port_b" --op health \
  >"$smoke_dir/chaos-health.log"
grep -q "ready: true degraded: false" "$smoke_dir/chaos-health.log"
# The survivor took the whole circus without a single contained panic,
# and its bounded cache held the line (9 distinct query shapes, 4 slots).
./target/release/ppm query --port "$port_b" --op metrics \
  >"$smoke_dir/chaos-metrics.log"
grep -q "^ppm_serve_panics_total 0$" "$smoke_dir/chaos-metrics.log"
cache_entries="$(sed -n 's/^ppm_serve_cache_entries \([0-9]*\)$/\1/p' "$smoke_dir/chaos-metrics.log")"
test -n "$cache_entries"
if [ "$cache_entries" -gt 4 ]; then
  echo "bounded cache exceeded its cap: $cache_entries entries > 4" >&2; exit 1
fi
kill -TERM "$chaos_pid" "$replica_b"
wait "$chaos_pid" "$replica_b" 2>/dev/null || true
grep -q "daemon stopped cleanly" "$smoke_dir/serveB.log"

echo "==> performance races (crates/bench): same-run floors, committed bands, identity"
# One process races each fast path against its reference on generated
# stores; every race asserts identical results before it trusts a time.
# Floors, bands and attempt counts live in crates/bench/src/races.rs and
# the committed points in crates/bench/races-baseline.json; nothing here
# rewrites a tracked file.
./target/release/races

echo "CI green."
