#!/usr/bin/env bash
# The full CI gate, runnable locally: build, test, lint, format.
# .github/workflows/ci.yml runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark harness (its own workspace: built and tested against today's API)"
# Cargo rewrites benchmark/Cargo.lock on every build (it still lists crates
# the workspace no longer vendors); the committed lockfile must not change.
BENCH_LOCK=$(mktemp)
cp benchmark/Cargo.lock "$BENCH_LOCK"
trap 'cp "$BENCH_LOCK" benchmark/Cargo.lock; rm -f "$BENCH_LOCK"' EXIT
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cp "$BENCH_LOCK" benchmark/Cargo.lock
rm -f "$BENCH_LOCK"
trap - EXIT

echo "==> chaos (fault-injection differential, seed matrix)"
cargo run --release -q -p grout-bench --bin chaos -- --seeds 8

echo "==> telemetry artifacts (Chrome trace + metrics dump, schema-checked)"
cargo run --release -q -p grout-bench --bin trace -- cg 8 grout:rr \
  --trace-out target/ci-trace.json --metrics-out target/ci-metrics.json
if command -v python3 >/dev/null; then
  python3 -m json.tool target/ci-trace.json >/dev/null
  python3 -m json.tool target/ci-metrics.json >/dev/null
else
  echo "(python3 unavailable; JSON validated by the telemetry test suite)"
fi

echo "==> distributed loopback (two grout-workerd processes over TCP, traced)"
./target/release/grout-workerd --listen 127.0.0.1:7401 & WORKERD1=$!
./target/release/grout-workerd --listen 127.0.0.1:7402 & WORKERD2=$!
trap 'kill "$WORKERD1" "$WORKERD2" 2>/dev/null || true' EXIT
sleep 1
# Two arrays, four kernels: round-robin gives both workers real work, so
# the merged trace must carry execute spans from both remote processes.
timeout 120 ./target/release/grout-run \
  --workers tcp:127.0.0.1:7401,127.0.0.1:7402 \
  --trace-out target/ci-dist-trace.json \
  --metrics-out target/ci-dist-metrics.json \
  --stats \
  -e '
    build = polyglot.eval("grout", "buildkernel")
    square = build("__global__ void square(float* x, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { x[i] = x[i] * x[i]; } }", "square(x: inout pointer float, n: sint32)")
    x = polyglot.eval("grout", "float[64]")
    y = polyglot.eval("grout", "float[64]")
    for i in range(64) { x[i] = i }
    for i in range(64) { y[i] = 64 - i }
    square(2, 32)(x, 64)
    square(2, 32)(y, 64)
    square(2, 32)(x, 64)
    square(2, 32)(y, 64)
    print(x)
    print(y)
'
# The daemons exit on their own when the controller hangs up; force-kill
# any straggler so a wedged teardown cannot hang the job.
kill "$WORKERD1" "$WORKERD2" 2>/dev/null || true
wait "$WORKERD1" "$WORKERD2" 2>/dev/null || true
trap - EXIT
if command -v python3 >/dev/null; then
  python3 - <<'EOF'
import json
trace = json.load(open("target/ci-dist-trace.json"))
pids = {e["pid"] for e in trace["traceEvents"]
        if e.get("ph") == "X" and e.get("cat") == "execute"}
assert {1, 2} <= pids, f"merged trace lacks worker execute lanes: {sorted(pids)}"
metrics = json.load(open("target/ci-dist-metrics.json"))
wire = metrics["wire"]
assert len(wire) == 2, f"expected 2 wire peers, got {len(wire)}"
assert any(w["hb_rtt"]["count"] >= 1 for w in wire), "no heartbeat RTT samples"
print("distributed trace/metrics schema OK")
EOF
else
  echo "(python3 unavailable; dist trace schema checked by tests/dist_loopback.rs)"
fi

echo "==> chaos --kill-process (SIGKILL a live grout-workerd; lineage replay)"
timeout 120 cargo run --release -q -p grout-bench --bin chaos -- --kill-process

echo "==> chaos --net-seeds (seeded sever/partition plans over TCP to spawned workerd pairs; bit-identical, zero quarantines)"
timeout 300 cargo run --release -q -p grout-bench --bin chaos -- --net-seeds 8

echo "==> chaos --net-sever (sever a live TCP session mid-chain; session resume)"
timeout 120 cargo run --release -q -p grout-bench --bin chaos -- --net-sever

echo "==> chaos --elastic (join a 3rd workerd mid-run, clean-Leave one; bit-identical)"
timeout 120 cargo run --release -q -p grout-bench --bin chaos -- --elastic

echo "==> SIGSTOP e2e (freeze one workerd past the grace window; resume, no quarantine)"
cat > target/ci-sigstop.gs <<'EOF'
build = polyglot.eval("grout", "buildkernel")
step = build("__global__ void step(float* x, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { x[i] = x[i] * 0.999 + 1.0; } }", "step(x: inout pointer float, n: sint32)")
x = polyglot.eval("grout", "float[16384]")
for i in range(16384) { x[i] = i }
for r in range(240) {
  step(64, 256)(x, 16384)
}
print(x[0])
print(x[16383])
EOF
# Uninterrupted reference run. The single dependent chain alternates
# workers each CE (round-robin), so freezing either worker stalls the
# whole pipeline — the controller must starve, suspect, and resume.
./target/release/grout-workerd --listen 127.0.0.1:7421 & SS_W1=$!
./target/release/grout-workerd --listen 127.0.0.1:7422 & SS_W2=$!
trap 'kill "$SS_W1" "$SS_W2" 2>/dev/null || true' EXIT
sleep 1
timeout 120 ./target/release/grout-run \
  --workers tcp:127.0.0.1:7421,127.0.0.1:7422 \
  --heartbeat-ms 20 --stale-after 3 --reconnect-window-ms 15000 \
  target/ci-sigstop.gs > target/ci-sigstop-ref.out
# The daemons exit on their own when the controller hangs up; force-kill
# one left parked awaiting a resume so a wedged teardown cannot hang the job.
kill "$SS_W1" "$SS_W2" 2>/dev/null || true
wait "$SS_W1" "$SS_W2" 2>/dev/null || true
# Chaos run on a fresh pair: freeze w0 mid-chain for a full second —
# ~17× the 60 ms staleness window — then thaw it. The session must
# resume; nothing may be quarantined; stdout must not change. The STOP
# is anchored to progress, not to wall-clock. w0 logs "peer 1 connected"
# once, in the startup link probe, when w1 dials it to echo w0's ballast;
# that is not chain progress: the chain starts only after ~0.8 s of
# controller-side host writes, and its peer-to-peer pulls reuse the
# connection. w0 spends no CPU in between, and about half a core once
# the chain reaches it, so the STOP waits for w0's CPU time
# (/proc/PID/stat utime+stime) to grow two 10 ms ticks past that line.
# A CE takes ~0.45 ms here (2-vCPU box, loopback), so the ~200 CEs left
# (~90 ms) cannot finish inside one 10 ms poll.
./target/release/grout-workerd --listen 127.0.0.1:7423 \
  > target/ci-sigstop-w0.log 2>&1 & SS_W1=$!
./target/release/grout-workerd --listen 127.0.0.1:7424 & SS_W2=$!
sleep 1
timeout 120 ./target/release/grout-run \
  --workers tcp:127.0.0.1:7423,127.0.0.1:7424 \
  --heartbeat-ms 20 --stale-after 3 --reconnect-window-ms 15000 \
  --stats --metrics-out target/ci-sigstop-metrics.json \
  target/ci-sigstop.gs > target/ci-sigstop.out 2> target/ci-sigstop.err & SS_RUN=$!
for _ in $(seq 1000); do
  grep -q "peer 1 connected" target/ci-sigstop-w0.log 2>/dev/null && break
  sleep 0.01
done
w0_cpu() { awk '{ print $14 + $15 }' "/proc/$SS_W1/stat"; }
SS_BASE=$(w0_cpu)
for _ in $(seq 1000); do
  [ "$(w0_cpu)" -ge $((SS_BASE + 2)) ] && break
  sleep 0.01
done
kill -STOP "$SS_W1"
sleep 1
kill -CONT "$SS_W1"
wait "$SS_RUN"
kill "$SS_W1" "$SS_W2" 2>/dev/null || true
wait "$SS_W1" "$SS_W2" 2>/dev/null || true
trap - EXIT
diff target/ci-sigstop-ref.out target/ci-sigstop.out
# resumes is column 7 of the --stats table; the freeze must have forced ≥1.
awk '$2 ~ /^w[0-9]+$/ { sum += $7 } END { exit !(sum >= 1) }' target/ci-sigstop.err
grep -q '"quarantines": 0' target/ci-sigstop-metrics.json
echo "SIGSTOP e2e OK: bit-identical output, >=1 resume, zero quarantines"

echo "==> controller failover (SIGKILL the primary mid-run; hot standby takes over)"
cat > target/ci-failover.gs <<'EOF'
build = polyglot.eval("grout", "buildkernel")
square = build("__global__ void square(float* x, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { x[i] = x[i] * x[i]; } }", "square(x: inout pointer float, n: sint32)")
x = polyglot.eval("grout", "float[64]")
y = polyglot.eval("grout", "float[64]")
for i in range(64) { x[i] = i }
for i in range(64) { y[i] = 64 - i }
square(2, 32)(x, 64)
square(2, 32)(y, 64)
square(2, 32)(x, 64)
square(2, 32)(y, 64)
print(x)
print(y)
EOF
# Uninterrupted reference run on its own workerd pair (the clean shutdown
# stops the daemons, so the failover run gets a fresh pair below).
./target/release/grout-workerd --listen 127.0.0.1:7411 & FO_W1=$!
./target/release/grout-workerd --listen 127.0.0.1:7412 & FO_W2=$!
trap 'kill "$FO_W1" "$FO_W2" 2>/dev/null || true' EXIT
sleep 1
timeout 120 ./target/release/grout-run \
  --workers tcp:127.0.0.1:7411,127.0.0.1:7412 \
  target/ci-failover.gs > target/ci-failover-ref.out
wait "$FO_W1" "$FO_W2" 2>/dev/null || true
# Failover run: standby first, then a primary doomed to SIGKILL itself
# mid-run. The workerds lose their controller, await re-adoption, and the
# standby adopts them to finish the job.
./target/release/grout-workerd --listen 127.0.0.1:7413 & FO_W1=$!
./target/release/grout-workerd --listen 127.0.0.1:7414 & FO_W2=$!
sleep 1
timeout 180 ./target/release/grout-run \
  --standby 127.0.0.1:7431 \
  --workers tcp:127.0.0.1:7413,127.0.0.1:7414 \
  target/ci-failover.gs > target/ci-failover-standby.out 2> target/ci-failover-standby.err & FO_SB=$!
for _ in $(seq 100); do
  grep -q "STANDBY LISTENING" target/ci-failover-standby.err 2>/dev/null && break
  sleep 0.1
done
timeout 120 ./target/release/grout-run \
  --workers tcp:127.0.0.1:7413,127.0.0.1:7414 \
  --journal target/ci-failover-primary.grjl \
  --ship-log 127.0.0.1:7431 \
  --die-after-ops 12 \
  target/ci-failover.gs > target/ci-failover-primary.out || true # dies by SIGKILL (137)
wait "$FO_SB"
kill "$FO_W1" "$FO_W2" 2>/dev/null || true
wait "$FO_W1" "$FO_W2" 2>/dev/null || true
trap - EXIT
test ! -s target/ci-failover-primary.out # the primary died before it could print
grep -q "taking over" target/ci-failover-standby.err
diff target/ci-failover-ref.out target/ci-failover-standby.out
# The killed primary's footer-less journal and the standby's replica agree
# on the full structure at the crash point: the per-op acks compared
# decisions, this compares state once.
./target/release/grout-replay target/ci-failover-primary.grjl > target/ci-failover-replay.out
grep -q "no footer (crashed run)" target/ci-failover-replay.out
FO_REPLAYED=$(sed -n 's/^state digest: \([0-9a-f]*\)$/\1/p' target/ci-failover-replay.out)
FO_REPLICA=$(sed -n 's/.*(replica digest \([0-9a-f]*\)).*/\1/p' target/ci-failover-standby.err)
test -n "$FO_REPLAYED"
test "$FO_REPLAYED" = "$FO_REPLICA"
echo "controller failover OK: standby output bit-identical to the uninterrupted run; journal replay digest $FO_REPLAYED == standby replica digest"

echo "==> grout-ctld e2e (two concurrent tenant clients, CE batching, bit-identical)"
cat > target/ci-ctld.gs <<'EOF'
build = polyglot.eval("grout", "buildkernel")
square = build("__global__ void square(float* x, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { x[i] = x[i] * x[i]; } }", "square(x: inout pointer float, n: sint32)")
x = polyglot.eval("grout", "float[256]")
for i in range(256) { x[i] = i }
square(8, 32)(x, 256)
square(8, 32)(x, 256)
print(x[0])
print(x[128])
print(x[255])
EOF
# Solo reference run: tenant isolation means every ctld client must get
# exactly these bytes back.
timeout 120 ./target/release/grout-run --workers 2 target/ci-ctld.gs > target/ci-ctld-ref.out
./target/release/grout-ctld --listen 127.0.0.1:7441 --threads 2 --batch --accept 2 \
  --journal target/ci-ctld.grjl > target/ci-ctld.log 2>&1 & CTLD=$!
trap 'kill "$CTLD" 2>/dev/null || true' EXIT
for _ in $(seq 100); do
  grep -q "CTLD LISTENING" target/ci-ctld.log 2>/dev/null && break
  sleep 0.1
done
timeout 120 ./target/release/grout-run --connect 127.0.0.1:7441 \
  target/ci-ctld.gs > target/ci-ctld-a.out & CTLD_CA=$!
timeout 120 ./target/release/grout-run --connect 127.0.0.1:7441 --priority high \
  target/ci-ctld.gs > target/ci-ctld-b.out & CTLD_CB=$!
wait "$CTLD_CA" "$CTLD_CB"
# --accept 2: the daemon drains both sessions and exits on its own; the
# timeout caps a wedged teardown, the kill reaps any straggler.
timeout 60 tail --pid="$CTLD" -f /dev/null || kill "$CTLD" 2>/dev/null || true
trap - EXIT
diff target/ci-ctld-ref.out target/ci-ctld-a.out
diff target/ci-ctld-ref.out target/ci-ctld-b.out
# The daemon's journal holds one session per client; grout-replay must
# rebuild each and verify it against its footer digest.
./target/release/grout-replay target/ci-ctld.grjl > target/ci-ctld-replay.out
test "$(grep -c "footer digest verified" target/ci-ctld-replay.out)" -eq 2
echo "grout-ctld e2e OK: both tenants bit-identical to the solo run, both journalled sessions verified"

echo "==> introspection e2e (live /metrics + /healthz + grout-top against grout-ctld --http)"
./target/release/grout-ctld --listen 127.0.0.1:7451 --threads 2 \
  --http 127.0.0.1:7452 --accept 2 \
  > target/ci-obs.log 2> target/ci-obs.err & OBS=$!
trap 'kill "$OBS" 2>/dev/null || true' EXIT
for _ in $(seq 100); do
  grep -q "CTLD HTTP" target/ci-obs.log 2>/dev/null && break
  sleep 0.1
done
curl -fsS http://127.0.0.1:7452/healthz > target/ci-obs-healthz.json
timeout 120 ./target/release/grout-run --connect 127.0.0.1:7451 \
  target/ci-ctld.gs > target/ci-obs-client.out
curl -fsS http://127.0.0.1:7452/metrics > target/ci-obs-metrics.txt
curl -fsS http://127.0.0.1:7452/sessions > target/ci-obs-sessions.json
./target/release/grout-top 127.0.0.1:7452 --once > target/ci-obs-top.out
grep -q "sessions (1)" target/ci-obs-top.out
# A trivial second client reaches the --accept cap so the daemon exits.
timeout 120 ./target/release/grout-run --connect 127.0.0.1:7451 \
  -e 'print(1)' > /dev/null
timeout 60 tail --pid="$OBS" -f /dev/null || kill "$OBS" 2>/dev/null || true
trap - EXIT
# Introspection must not perturb the tenant: bit-identical to the solo run.
diff target/ci-ctld-ref.out target/ci-obs-client.out
if command -v python3 >/dev/null; then
  python3 - <<'EOF'
import json, math, re
health = json.load(open("target/ci-obs-healthz.json"))
assert health["healthy"] is True, health
assert health["fleet"]["alive"] >= 1, health
sessions = json.load(open("target/ci-obs-sessions.json"))
assert any(s["state"] == "finished" for s in sessions), sessions
line_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*$')
session_label = False
for raw in open("target/ci-obs-metrics.txt"):
    line = raw.rstrip("\n")
    if not line or line.startswith("#"):
        continue
    assert line_re.match(line), f"invalid exposition line: {line!r}"
    value = float(line.rsplit(" ", 1)[1])
    assert math.isfinite(value), f"non-finite sample: {line!r}"
    if 'session="' in line:
        session_label = True
assert session_label, "no per-session labels in the exposition"
print("introspection exposition schema OK")
EOF
else
  echo "(python3 unavailable; exposition schema checked by tests/ctld.rs)"
fi
echo "introspection e2e OK: live endpoints answered with per-session labels"

echo "==> micro-benchmarks (every target/bench/BENCH_*.json regenerates and parses)"
# No pass/fail threshold: on a 2-vCPU box an untouched row moves 25-100 %
# between runs with no code change. Each row prints beside its committed value;
# committing new numbers is a cp from target/bench/.
rm -f target/bench/BENCH_*.json
cargo bench -q -p grout-bench
for f in target/bench/BENCH_{interp,oplog,obs,ctld}.json; do
  if command -v python3 >/dev/null; then
    python3 -m json.tool "$f" >/dev/null
  else
    test -s "$f"
  fi
done

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> rustdoc (no warnings: broken or private intra-doc links, stray HTML)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
