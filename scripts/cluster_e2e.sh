#!/bin/sh
# cluster_e2e.sh — subprocess end-to-end test of the provmind cluster:
# boots 3 provmind nodes sharing one cold tier plus a provrouter in front,
# ingests instances across the nodes through the router, then
#
#   1. proves routed reads are cached (X-Provmind-Cache: hit on a repeat),
#   2. SIGKILLs one node and asserts every /core answer through the router
#      is byte-identical to its pre-kill answer (replica failover),
#   3. restarts the killed node and asserts the answers again (WAL
#      recovery + fault-in), and
#   4. runs POST /admin/rebalance and asserts the cluster still answers
#      identically with no rebalance errors.
#
# /core bodies are normalized (cache-observability fields dropped, keys
# sorted) before comparison, so "byte-identical" means the answer, not
# which caches happened to be warm. Requires curl and python3.
#
# Usage: scripts/cluster_e2e.sh [workdir]   (default: a fresh mktemp dir)
set -eu

cd "$(dirname "$0")/.." || exit 1

BASE_PORT="${BASE_PORT:-18410}"
ROUTER_PORT="$BASE_PORT"
PORT_A=$((BASE_PORT + 1))
PORT_B=$((BASE_PORT + 2))
PORT_C=$((BASE_PORT + 3))
PEERS="a=http://127.0.0.1:$PORT_A,b=http://127.0.0.1:$PORT_B,c=http://127.0.0.1:$PORT_C"
ROUTER="http://127.0.0.1:$ROUTER_PORT"
INSTANCES="${INSTANCES:-9}"

work="${1:-$(mktemp -d)}"
mkdir -p "$work"
echo "cluster_e2e: workdir $work"

fail() { echo "cluster_e2e: FAIL: $*" >&2; exit 1; }

pids=""
cleanup() {
    for p in $pids; do
        kill "$p" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

echo "cluster_e2e: building binaries"
go build -o "$work/provmind" ./cmd/provmind
go build -o "$work/provrouter" ./cmd/provrouter

# start_node NAME PORT — boot one member over the shared cold dir. The WAL
# syncs on every commit so a SIGKILL loses nothing acknowledged.
start_node() {
    name="$1" port="$2"
    "$work/provmind" -addr "127.0.0.1:$port" \
        -data-dir "$work/$name" -wal-sync always \
        -cold-dir "$work/cold" \
        -node-name "$name" -peers "$PEERS" -probe-interval 500ms \
        -batch 1 \
        >>"$work/$name.log" 2>&1 &
    pid=$!
    pids="$pids $pid"
    eval "pid_$name=$pid"
}

wait_healthy() {
    url="$1"
    i=0
    while ! curl -fsS -o /dev/null "$url/healthz" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || fail "$url never became healthy"
        sleep 0.1
    done
}

start_node a "$PORT_A"
start_node b "$PORT_B"
start_node c "$PORT_C"
"$work/provrouter" -addr "127.0.0.1:$ROUTER_PORT" -peers "$PEERS" \
    -probe-interval 500ms -dial-timeout 500ms >>"$work/router.log" 2>&1 &
pids="$pids $!"

for url in "http://127.0.0.1:$PORT_A" "http://127.0.0.1:$PORT_B" \
    "http://127.0.0.1:$PORT_C" "$ROUTER"; do
    wait_healthy "$url"
done
echo "cluster_e2e: 3 nodes + router up"

# normalize < body.json — drop cache-observability fields, sort keys.
normalize() {
    python3 -c '
import json, sys
m = json.load(sys.stdin)
m.pop("cache_hit", None)
m.pop("result_cache_hit", None)
json.dump(m, sys.stdout, sort_keys=True)
'
}

# read_core ID OUTFILE [HDRFILE] — routed /core, normalized into OUTFILE.
read_core() {
    id="$1" out="$2" hdr="${3:-$work/hdr.tmp}"
    curl -fsS -D "$hdr" -X POST "$ROUTER/core" \
        -H 'Content-Type: application/json' \
        -d "{\"instance\":\"$id\",\"query\":\"ans(x) :- R(x,y), R(y,x)\"}" \
        | normalize > "$out" \
        || fail "routed /core for $id failed"
}

echo "cluster_e2e: ingesting $INSTANCES instances through the router"
ids=""
i=0
while [ "$i" -lt "$INSTANCES" ]; do
    id="e2e-$i"
    ids="$ids $id"
    curl -fsS -X POST "$ROUTER/instances" -H 'Content-Type: application/json' \
        -d "{\"id\":\"$id\",\"initial\":\"R r1 a a\\nR r2 a b\\nR r3 b a\"}" \
        -o /dev/null || fail "create $id"
    curl -fsS -X POST "$ROUTER/instances/$id/tuples" \
        -H 'Content-Type: application/json' \
        -d "{\"facts\":[{\"rel\":\"R\",\"tag\":\"t$i\",\"values\":[\"b\",\"b\"]}]}" \
        -o /dev/null || fail "ingest into $id"
    i=$((i + 1))
done

# Record every instance's answer and its serving node; require the ring to
# actually spread the instances over more than one node.
for id in $ids; do
    read_core "$id" "$work/before.$id" "$work/hdr.$id"
done
nodes_used="$(grep -ih '^x-provmind-node:' "$work"/hdr.e2e-* | awk '{print $2}' | tr -d '\r' | sort -u | wc -l)"
[ "$nodes_used" -ge 2 ] || fail "instances landed on only $nodes_used node(s); ring not spreading"
echo "cluster_e2e: instances spread over $nodes_used nodes"

# Repeat one read: the router cache must serve it.
read_core e2e-0 "$work/repeat.e2e-0" "$work/hdr.repeat"
grep -iq '^x-provmind-cache: hit' "$work/hdr.repeat" || fail "repeat read was not a router cache hit"
cmp -s "$work/before.e2e-0" "$work/repeat.e2e-0" || fail "cache hit differs from miss"
echo "cluster_e2e: router cache hit verified"

# Evict everything through the router so every instance has a cold blob —
# the state a replica can serve once its owner is gone.
for id in $ids; do
    curl -fsS -X POST "$ROUTER/admin/evict" -H 'Content-Type: application/json' \
        -d "{\"instance\":\"$id\"}" -o /dev/null || fail "evict $id"
done

# SIGKILL the node serving e2e-0.
victim="$(grep -ih '^x-provmind-node:' "$work/hdr.e2e-0" | awk '{print $2}' | tr -d '\r')"
victim_port="$(eval echo "\$PORT_$(echo "$victim" | tr 'abc' 'ABC')")"
victim_pid="$(eval echo "\$pid_$victim")"
echo "cluster_e2e: SIGKILL node $victim (pid $victim_pid)"
kill -9 "$victim_pid"
wait "$victim_pid" 2>/dev/null || true

# Every answer must survive the kill byte-identically through the router.
for id in $ids; do
    read_core "$id" "$work/failover.$id"
    cmp -s "$work/before.$id" "$work/failover.$id" \
        || fail "core for $id changed after SIGKILL of $victim: $(cat "$work/failover.$id")"
done
echo "cluster_e2e: all $INSTANCES cores byte-identical after failover"

# Restart the killed node from its data dir; answers must hold again.
start_node "$victim" "$victim_port"
wait_healthy "http://127.0.0.1:$victim_port"
echo "cluster_e2e: node $victim rejoined"
for id in $ids; do
    read_core "$id" "$work/rejoin.$id"
    cmp -s "$work/before.$id" "$work/rejoin.$id" \
        || fail "core for $id changed after $victim rejoined: $(cat "$work/rejoin.$id")"
done
echo "cluster_e2e: all $INSTANCES cores byte-identical after rejoin"

# Rebalance heals any borrowed/misplaced copies left by the failover; the
# cluster must report no errors and keep answering identically.
curl -fsS -X POST "$ROUTER/admin/rebalance" -o "$work/rebalance.json" || fail "rebalance"
if grep -q '"errors"' "$work/rebalance.json"; then
    fail "rebalance reported errors: $(cat "$work/rebalance.json")"
fi
for id in $ids; do
    read_core "$id" "$work/rebalanced.$id"
    cmp -s "$work/before.$id" "$work/rebalanced.$id" \
        || fail "core for $id changed after rebalance"
done
echo "cluster_e2e: rebalance clean, answers unchanged"
echo "cluster_e2e: PASS"
