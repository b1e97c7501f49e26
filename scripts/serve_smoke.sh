#!/usr/bin/env bash
# Serve smoke: build both binaries, start a durable lbtrust-serve, drive
# three concurrent authenticated clients against it over real sockets,
# and assert the statements landed. Exercises the full out-of-process
# path: key export, challenge-response auth, say/sync/query, explain
# proof trees, the audit ring, durability, and the -admin-addr
# observability endpoint (/healthz, /metrics, /debug/audit).
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill $server_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/lbtrust" ./cmd/lbtrust
go build -o "$workdir/lbtrust-serve" ./cmd/lbtrust-serve

# fetch URL > file, with whichever of curl/wget the runner has.
fetch() {
  if command -v curl >/dev/null; then curl -fsS "$1"
  else wget -qO- "$1"
  fi
}

"$workdir/lbtrust-serve" \
  -listen 127.0.0.1:0 -addr-file "$workdir/addr" \
  -admin-addr 127.0.0.1:0 -admin-addr-file "$workdir/admin_addr" \
  -data-dir "$workdir/trust.db" \
  -principals alice,bob,carol -trust-all \
  -provenance -slow-query 1h \
  -export-keys "$workdir/keys" &
server_pid=$!

for _ in $(seq 1 100); do
  [ -s "$workdir/addr" ] && [ -s "$workdir/admin_addr" ] && break
  kill -0 $server_pid || { echo "server died during startup"; exit 1; }
  sleep 0.1
done
addr=$(cat "$workdir/addr")
admin=$(cat "$workdir/admin_addr")
echo "server at $addr (admin at $admin)"

# The admin endpoint answers before any traffic: health and a zeroed
# metric surface.
[ "$(fetch "http://$admin/healthz")" = "ok" ] || { echo "healthz not ok"; exit 1; }
fetch "http://$admin/metrics" > "$workdir/metrics.before"
grep -q '^lb_server_requests_total{verb="query"} 0$' "$workdir/metrics.before" \
  || { echo "expected zero query counter before traffic"; exit 1; }

# Three concurrent authenticated clients: alice and carol each say a
# greeting to bob while bob polls with queries.
"$workdir/lbtrust" -connect "$addr" -principal alice -key "$workdir/keys/alice.key" \
  -say 'bob: greeting(from_alice).' -sync &
a=$!
"$workdir/lbtrust" -connect "$addr" -principal carol -key "$workdir/keys/carol.key" \
  -say 'bob: greeting(from_carol).' -sync &
b=$!
"$workdir/lbtrust" -connect "$addr" -principal bob -key "$workdir/keys/bob.key" \
  -query 'prin(X)' > "$workdir/prin.out" &
c=$!
wait $a $b $c

grep -q "(alice)" "$workdir/prin.out" || { echo "bob cannot see principals"; exit 1; }

# One more sync makes sure everything shipped, then bob reads the greetings.
"$workdir/lbtrust" -connect "$addr" -principal bob -key "$workdir/keys/bob.key" -sync \
  -query 'greeting(X)' > "$workdir/greetings.out"
grep -q "(from_alice)" "$workdir/greetings.out" || { echo "alice's greeting missing"; cat "$workdir/greetings.out"; exit 1; }
grep -q "(from_carol)" "$workdir/greetings.out" || { echo "carol's greeting missing"; cat "$workdir/greetings.out"; exit 1; }

# The traffic above must have moved the counters: queries and syncs
# were handled, auth succeeded, the workspace flushed, the distribution
# runtime pumped, and every scrape is a fresh snapshot of those counts.
fetch "http://$admin/metrics" > "$workdir/metrics.after"
assert_moved() {
  before=$(awk -v m="$1" '$1 == m {print $2}' "$workdir/metrics.before")
  after=$(awk -v m="$1" '$1 == m {print $2}' "$workdir/metrics.after")
  [ -n "$after" ] || { echo "metric $1 missing from /metrics"; exit 1; }
  awk -v b="${before:-0}" -v a="$after" 'BEGIN { exit !(a > b) }' \
    || { echo "metric $1 did not move (before=${before:-0} after=$after)"; exit 1; }
}
assert_moved 'lb_server_requests_total{verb="query"}'
assert_moved 'lb_server_requests_total{verb="sync"}'
assert_moved 'lb_server_auth_total{outcome="ok"}'
assert_moved 'lb_workspace_flush_seconds_count'
assert_moved 'lb_dist_syncs_total'
assert_moved 'lb_dist_delivered_tuples_total'
echo "metrics moved with traffic"

# Explain round-trip: bob asks why the greetings hold, and each proof
# must descend to a delivery leaf naming the principal that said it —
# the out-of-process twin of the in-process provenance tests.
"$workdir/lbtrust" -connect "$addr" -principal bob -key "$workdir/keys/bob.key" \
  -explain 'greeting(X)' > "$workdir/proofs.out"
grep -q "said by alice" "$workdir/proofs.out" || { echo "proof does not name alice"; cat "$workdir/proofs.out"; exit 1; }
grep -q "said by carol" "$workdir/proofs.out" || { echo "proof does not name carol"; cat "$workdir/proofs.out"; exit 1; }
grep -q "activated by:" "$workdir/proofs.out" || { echo "proof missing activation credential"; cat "$workdir/proofs.out"; exit 1; }
echo "explain proofs name their asserting principals"

# The audit ring saw the authenticated traffic.
fetch "http://$admin/debug/audit" > "$workdir/audit.json"
grep -q '"principal": "bob"' "$workdir/audit.json" || { echo "audit ring missing bob's requests"; exit 1; }
grep -q '"verb": "explain"' "$workdir/audit.json" || { echo "audit ring missing the explain"; exit 1; }

# Wrong-key sessions are rejected: bob's key cannot prove alice.
if "$workdir/lbtrust" -connect "$addr" -principal alice -key "$workdir/keys/bob.key" \
    -say 'bob: forged(x).' 2>"$workdir/forge.err"; then
  echo "forged authentication was accepted"; exit 1
fi
grep -q "does not prove" "$workdir/forge.err" || { echo "unexpected rejection:"; cat "$workdir/forge.err"; exit 1; }
fetch "http://$admin/metrics" > "$workdir/metrics.forged"
grep -q '^lb_server_auth_total{outcome="fail"} [1-9]' "$workdir/metrics.forged" \
  || { echo "failed auth not counted"; exit 1; }

# Restart the server on the same data dir: state and keys recover, the
# same client keys still authenticate, and the greetings are still there.
kill $server_pid
wait $server_pid 2>/dev/null || true
rm -f "$workdir/addr"
"$workdir/lbtrust-serve" \
  -listen 127.0.0.1:0 -addr-file "$workdir/addr" \
  -data-dir "$workdir/trust.db" &
server_pid=$!
for _ in $(seq 1 100); do
  [ -s "$workdir/addr" ] && break
  kill -0 $server_pid || { echo "server died on restart"; exit 1; }
  sleep 0.1
done
addr=$(cat "$workdir/addr")
"$workdir/lbtrust" -connect "$addr" -principal bob -key "$workdir/keys/bob.key" \
  -query 'greeting(X)' > "$workdir/recovered.out"
diff "$workdir/greetings.out" "$workdir/recovered.out" || { echo "recovered greetings differ"; exit 1; }

echo "serve smoke OK"
