#!/usr/bin/env bash
# End-to-end smoke of the versioned session API over a real network hop:
# llmstub serves OpenAI-compatible completions (with injected 429s and a
# latency tail), websimd runs with -model remote, hedging and the
# incident pipeline enabled, and curl drives the /v1 routes — create,
# ask, paginated list envelopes, the removed unversioned aliases (now
# 404), the error envelope, live SSE event streaming during an
# investigation, an incident filed over POST /v1/incidents and polled to
# resolved by the queue processor, and the namespaced stats blocks that
# must show the injected failures were retried, the tail was hedged and
# the incident drained.
set -euo pipefail
cd "$(dirname "$0")/.."

# Five loopback ports, reserved at run time: the kernel hands each
# socket a free port on 127.0.0.1:0, all five are held at once so they
# differ, and they are released just before the servers bind them.
read -r LLM_PORT API_PORT GW_PORT B1_PORT B2_PORT < <(python3 -c '
import socket
socks = [socket.socket() for _ in range(5)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(*(s.getsockname()[1] for s in socks))
')
LLM_ADDR=127.0.0.1:$LLM_PORT
API_ADDR=127.0.0.1:$API_PORT
WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/llmstub" ./cmd/llmstub
go build -o "$WORK/websimd" ./cmd/websimd

"$WORK/llmstub" -addr "$LLM_ADDR" -fail 2 \
  -slow-every 3 -slow-latency 300ms >"$WORK/llmstub.log" 2>&1 &
PIDS+=($!)
REPRO_LLM_ENDPOINT="http://$LLM_ADDR" REPRO_LLM_HEDGE_DELAY=50ms \
  "$WORK/websimd" -addr "$API_ADDR" -model remote \
  -incident-workers 2 >"$WORK/websimd.log" 2>&1 &
PIDS+=($!)

wait_up() {
  for _ in $(seq 100); do
    if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "smoke: $1 did not come up" >&2
  return 1
}
wait_up "$LLM_ADDR"
wait_up "$API_ADDR"

# req METHOD PATH EXPECTED_STATUS [JSON_BODY]; body lands in $WORK/resp.
req() {
  local method=$1 path=$2 want=$3 body=${4:-}
  local args=(-s -o "$WORK/resp" -w '%{http_code}' -X "$method")
  if [[ -n "$body" ]]; then
    args+=(-H 'Content-Type: application/json' -d "$body")
  fi
  local got
  got=$(curl "${args[@]}" "http://$API_ADDR$path")
  if [[ "$got" != "$want" ]]; then
    echo "smoke: $method $path = $got, want $want:" >&2
    cat "$WORK/resp" >&2
    exit 1
  fi
}

expect_body() {
  if ! grep -q "$1" "$WORK/resp"; then
    echo "smoke: response missing $1:" >&2
    cat "$WORK/resp" >&2
    exit 1
  fi
}

# Create and drive a session through /v1.
req POST /v1/sessions 201 '{"id":"smoke","train":true}'
expect_body '"trained":true'
req POST /v1/sessions/smoke/ask 200 '{"question":"Why are undersea cables vulnerable?"}'
expect_body '"confidence"'
req GET /v1/sessions 200
expect_body '"items"'
expect_body '"smoke"'

# The removed unversioned aliases are gone for good: 404 with the
# standard envelope, and they never leak through to the websim routes.
req GET /sessions/smoke 404
expect_body '"code":"not_found"'
req POST /sessions 404 '{"id":"nope"}'
expect_body '"code":"not_found"'
req GET /stats 404
expect_body '"code":"not_found"'

# Failures use the standardized error envelope with stable codes.
req GET /v1/sessions/ghost 404
expect_body '"code":"not_found"'
req POST /v1/sessions 400 '{"id":"bad","model":"gpt-17"}'
expect_body '"code":"unknown_model"'

# Live event streaming: subscribe to a fresh session's SSE feed, run an
# investigation, and require at least one round event to arrive before
# the terminal answer — the interactivity the endpoint exists for.
req POST /v1/sessions 201 '{"id":"stream"}'
curl -sN --max-time 60 "http://$API_ADDR/v1/sessions/stream/events" >"$WORK/events" &
SSE_PID=$!
PIDS+=("$SSE_PID")
sleep 0.3
req POST /v1/sessions/stream/learn 200 '{"question":"Why are undersea cables vulnerable?"}'
for _ in $(seq 100); do
  kill -0 "$SSE_PID" 2>/dev/null || break
  sleep 0.1
done
round_line=$(grep -n '^event: round' "$WORK/events" | head -1 | cut -d: -f1 || true)
answer_line=$(grep -n '^event: answer' "$WORK/events" | head -1 | cut -d: -f1 || true)
if [[ -z "$round_line" || -z "$answer_line" || "$round_line" -ge "$answer_line" ]]; then
  echo "smoke: SSE stream missing round-before-answer (round=$round_line answer=$answer_line):" >&2
  cat "$WORK/events" >&2
  exit 1
fi

# The audit trace is the same event log the stream carried: typed
# events, ending at the stream's last ID.
SSE_LAST=$(grep '^id: ' "$WORK/events" | tail -1 | cut -d' ' -f2)
req GET /v1/sessions/stream/trace 200
python3 - "$WORK/resp" "$SSE_LAST" <<'EOF'
import json, sys
evs = json.load(open(sys.argv[1]))["events"]
assert evs and all(isinstance(e.get("id"), int) and e.get("type") for e in evs), f"trace is not typed events: {evs}"
assert evs[-1]["id"] == int(sys.argv[2]), f"trace ends at id {evs[-1]['id']}, the SSE stream at {sys.argv[2]}"
assert any(e["type"] == "search" for e in evs), f"trace records no self-learning search: {evs}"
EOF

# Incident pipeline, end to end: file an incident over the API and let
# the queue processor claim, investigate and resolve it unattended. The
# title names a documented incident, so the leader's investigation can
# ground its cause question in the corpus and clear the threshold.
req POST /v1/incidents 201 \
  '{"type":"bgp-route-withdrawal","severity":"critical","title":"2021 Facebook outage"}'
expect_body '"status":"open"'
INC_ID=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORK/resp")
for _ in $(seq 300); do
  req GET "/v1/incidents/$INC_ID" 200
  grep -q '"status":"resolved"' "$WORK/resp" && break
  if grep -q '"status":"escalated"' "$WORK/resp"; then
    echo "smoke: incident escalated instead of resolving:" >&2
    cat "$WORK/resp" >&2
    exit 1
  fi
  sleep 0.2
done
if ! grep -q '"status":"resolved"' "$WORK/resp"; then
  echo "smoke: incident never resolved:" >&2
  cat "$WORK/resp" >&2
  exit 1
fi
expect_body '"resolution"'

# Incident lists share the paginated envelope, and illegal lifecycle
# transitions use the standard error envelope with the 409 code.
req GET /v1/incidents 200
expect_body '"items"'
expect_body "$INC_ID"
req POST "/v1/incidents/$INC_ID/resolve" 409
expect_body '"code":"invalid_state"'
req GET /v1/incidents/inc-999999 404
expect_body '"code":"not_found"'

# The stats endpoint reports the namespaced blocks: the two injected
# 429s must show up as absorbed retries, the injected latency tail as
# hedged attempts that won, and the incident as drained.
req GET /v1/stats 200
expect_body '"sessions"'
expect_body '"backend"'
expect_body '"memory_segments"'
expect_body '"retrieval"'
expect_body '"incidents"'
python3 - "$WORK/resp" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
se = stats["sessions"]
assert se["live"] >= 1, f"live sessions not counted: {stats}"
be = stats["backend"]
assert be["requests"] > 0, stats
assert be["retries"] >= 2, f"injected 429s not retried: {stats}"
assert be["failures"] == 0, f"smoke traffic should fully recover: {stats}"
assert be["hedged_attempts"] >= 1, f"latency tail never hedged: {stats}"
assert be["hedge_wins"] >= 1, f"hedges never beat the injected tail: {stats}"
rt = stats["retrieval"]
assert rt["searches"] > 0, f"training ran no counted searches: {stats}"
assert rt["fetches"] > 0, f"training ran no counted fetches: {stats}"
assert rt["searches_in_flight"] == 0, f"search gauge stuck: {stats}"
assert rt["fetches_in_flight"] == 0, f"fetch gauge stuck: {stats}"
seg = stats["memory_segments"]
assert seg["segments"] >= 1, f"trained session sealed no segment: {stats}"
assert seg["refs"] >= 1, f"sealed segment not attached to the session: {stats}"
assert seg["resident_bytes"] > 0, f"segment residency not accounted: {stats}"
inc = stats["incidents"]
assert inc["filed"] >= 1, f"filed incident not counted: {stats}"
assert inc["resolved"] >= 1, f"incident not resolved: {stats}"
assert inc["queue_depth"] == 0 and inc["claimed"] == 0, f"incident queue not drained: {stats}"
assert inc["leaders"] >= 1, f"no leader investigation counted: {stats}"
assert inc["workers"] == 2, f"worker count not reported: {stats}"
EOF

req DELETE /v1/sessions/smoke 200
req GET /v1/sessions/smoke 404

# ---------------------------------------------------------------------
# Gateway tier: two backends sharing a snapshot directory behind one
# consistent-hash gateway. A session created through the gateway must
# survive the graceful removal of whichever backend owns it (drain ->
# snapshot -> lazy restore on the survivor) and keep answering the same
# question with the same answer, and /v1/metrics must serve Prometheus
# text on the gateway (merged, node-labelled) and on each backend.
GW_ADDR=127.0.0.1:$GW_PORT
B1_ADDR=127.0.0.1:$B1_PORT
B2_ADDR=127.0.0.1:$B2_PORT
mkdir -p "$WORK/snap"
for b in "$B1_ADDR" "$B2_ADDR"; do
  REPRO_LLM_ENDPOINT="http://$LLM_ADDR" \
    "$WORK/websimd" -addr "$b" -model remote \
    -snapshots "$WORK/snap" >"$WORK/backend-$b.log" 2>&1 &
  PIDS+=($!)
done
"$WORK/websimd" -addr "$GW_ADDR" -gateway \
  -backends "$B1_ADDR,$B2_ADDR" >"$WORK/gateway.log" 2>&1 &
PIDS+=($!)
wait_up "$B1_ADDR"
wait_up "$B2_ADDR"
wait_up "$GW_ADDR"

# req_at HOST METHOD PATH EXPECTED_STATUS [JSON_BODY]
req_at() {
  local host=$1 method=$2 path=$3 want=$4 body=${5:-}
  local args=(-s -o "$WORK/resp" -w '%{http_code}' -X "$method")
  if [[ -n "$body" ]]; then
    args+=(-H 'Content-Type: application/json' -d "$body")
  fi
  local got
  got=$(curl "${args[@]}" "http://$host$path")
  if [[ "$got" != "$want" ]]; then
    echo "smoke: $method $host$path = $got, want $want:" >&2
    cat "$WORK/resp" >&2
    exit 1
  fi
}

req_at "$GW_ADDR" POST /v1/sessions 201 '{"id":"gwsmoke","train":true}'
expect_body '"trained":true'
req_at "$GW_ADDR" POST /v1/sessions/gwsmoke/ask 200 \
  '{"question":"Why are undersea cables vulnerable?"}'
expect_body '"confidence"'
cp "$WORK/resp" "$WORK/ask-before"

# The session lives on exactly one backend; the other has no snapshot
# yet and must 404 it when asked directly.
OWNER=""
for b in "$B1_ADDR" "$B2_ADDR"; do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$b/v1/sessions/gwsmoke")
  if [[ "$code" == 200 ]]; then OWNER="$b"; fi
done
if [[ -z "$OWNER" ]]; then
  echo "smoke: no backend owns gwsmoke" >&2
  exit 1
fi

# Remove the owner gracefully: the gateway drains its sessions to the
# shared snapshot directory and the survivor restores on next touch.
req_at "$GW_ADDR" DELETE "/v1/gateway/backends/$OWNER" 200
req_at "$GW_ADDR" GET /v1/gateway 200
python3 - "$WORK/resp" "$OWNER" <<'EOF'
import json, sys
st = json.load(open(sys.argv[1]))
assert sys.argv[2] not in st["backends"], f"owner still in ring: {st}"
assert len(st["backends"]) == 1, f"ring should hold the survivor: {st}"
assert st["migrations"] >= 1, f"drain moved no sessions: {st}"
EOF
req_at "$GW_ADDR" POST /v1/sessions/gwsmoke/ask 200 \
  '{"question":"Why are undersea cables vulnerable?"}'
if ! cmp -s "$WORK/ask-before" "$WORK/resp"; then
  echo "smoke: migrated session changed its answer:" >&2
  cat "$WORK/ask-before" "$WORK/resp" >&2
  exit 1
fi

# Prometheus exposition on both tiers: the gateway merges its own
# gauges with node-labelled backend scrapes; backends serve their
# request histograms and flattened stats directly.
curl -sf "http://$GW_ADDR/v1/metrics" >"$WORK/gw-metrics"
grep -q '^repro_gateway_backends 1$' "$WORK/gw-metrics" || {
  echo "smoke: gateway metrics missing ring gauge:" >&2
  cat "$WORK/gw-metrics" >&2; exit 1; }
grep -q 'repro_gateway_proxied_total' "$WORK/gw-metrics" || {
  echo "smoke: gateway metrics missing proxied counter" >&2; exit 1; }
grep -q 'node="' "$WORK/gw-metrics" || {
  echo "smoke: gateway metrics missing node-labelled backend series" >&2; exit 1; }
for b in "$B1_ADDR" "$B2_ADDR"; do
  [[ "$b" == "$OWNER" ]] && continue
  curl -sf "http://$b/v1/metrics" >"$WORK/backend-metrics"
  grep -q 'repro_http_request_seconds_bucket' "$WORK/backend-metrics" || {
    echo "smoke: backend metrics missing request histogram" >&2; exit 1; }
  grep -q 'repro_stats_sessions_live' "$WORK/backend-metrics" || {
    echo "smoke: backend metrics missing flattened stats" >&2; exit 1; }
done

# Flag validation fails fast with exit 2, before any listener binds.
expect_exit2() {
  local why=$1; shift
  set +e
  "$WORK/websimd" "$@" >/dev/null 2>&1
  local code=$?
  set -e
  if [[ "$code" != 2 ]]; then
    echo "smoke: websimd $* exited $code, want 2 ($why)" >&2
    exit 1
  fi
}
expect_exit2 "backends sans gateway" -backends 127.0.0.1:1
expect_exit2 "gateway sans backends" -gateway
expect_exit2 "duplicate backends"   -gateway -backends "127.0.0.1:1,127.0.0.1:1"
expect_exit2 "gateway + incident-sim" -gateway -backends 127.0.0.1:1 -incident-sim
expect_exit2 "shared incident journal" -gateway -spawn 2 -incident-workers 1

echo "smoke: ok (retries absorbed, tail hedged, SSE streamed rounds, trace matched the stream, incident drained to resolved, session migrated across backends, metrics scraped)"
