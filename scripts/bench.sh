#!/usr/bin/env bash
# Benchmark sweeps: runs the session-runtime, ask-hot-path, streaming
# and retrieval-pipeline benchmark suites at -cpu 8
# and records the results as BENCH_sessions.json, BENCH_ask.json,
# BENCH_stream.json and BENCH_investigate.json in the repo root; the
# footprint and incident-pipeline suites write BENCH_footprint.json and
# BENCH_incidents.json themselves. Opt-in and separate from check.sh,
# whose 1-iteration sweep only guards the harness against rot — this
# script takes real measurements.
#
# Usage: scripts/bench.sh [benchtime]   (default 2s)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-2s}"

# run_suite <suite-name> <bench-regex> <output-file>
run_suite() {
  local suite="$1" pattern="$2" out="$3"
  local raw
  raw=$(mktemp)
  go test -run='^$' -bench="$pattern" \
    -benchmem -cpu 8 -benchtime "$benchtime" . | tee "$raw"
  awk -v suite="$suite" -v benchtime="$benchtime" '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      res[name] = sprintf("{\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}",
                          name, $2, $3, $5, $7)
      order[n++] = name
    }
    /^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
    END {
      printf "{\n  \"suite\": \"%s\",\n  \"cpu\": \"%s\",\n  \"gomaxprocs\": 8,\n  \"benchtime\": \"%s\",\n  \"results\": [\n", suite, cpu, benchtime
      for (i = 0; i < n; i++) printf "    %s%s\n", res[order[i]], (i < n - 1 ? "," : "")
      print "  ]\n}"
    }
  ' "$raw" > "$out"
  rm -f "$raw"
  echo "wrote $out"
}

run_suite sessions \
  'BenchmarkManagerChurn|BenchmarkManagerGetHot|BenchmarkHTTPAskParallel' \
  BENCH_sessions.json

run_suite ask \
  '^BenchmarkAsk(Warm|WarmRotating|Parallel|HTTP)$|^BenchmarkHTTPAskParallel$' \
  BENCH_ask.json

# The interactivity suite: time-to-first-event and time-to-first-round
# against the full investigation. The acceptance line is FirstEvent >=
# 5x below FullInvestigate.
run_suite stream \
  '^BenchmarkStream(FirstEvent|FirstRound|FullInvestigate)$' \
  BENCH_stream.json

# The retrieval-pipeline suite: cold investigation and one
# self-learning pass at the default fan-out width vs workers=1. The
# acceptance line is Cold >= 2x faster than ColdSequential.
run_suite investigate \
  '^BenchmarkInvestigateCold(Sequential)?$|^BenchmarkSelfLearn(Fanout|Sequential)$' \
  BENCH_investigate.json

# The memory-footprint suite writes its own JSON (residency deltas need
# runtime.MemStats, not benchmark counters): bytes/session at N=1k idle
# trained sessions, clone cost, snapshot v1 vs v2 size, warm-ask guard.
REPRO_FOOTPRINT_OUT="$PWD/BENCH_footprint.json" \
  go test -count=1 -run '^TestFootprintReport$' .
echo "wrote BENCH_footprint.json"

# The incident-pipeline suite also writes its own JSON (incidents/sec
# and the dedup speedup are derived metrics): full sim-batch drains at
# workers 1/4/8 plus the all-leader baseline the leader-follower dedup
# is measured against.
REPRO_INCIDENTS_OUT="$PWD/BENCH_incidents.json" \
  go test -count=1 -run '^TestIncidentPipelineReport$' .
echo "wrote BENCH_incidents.json"

# The gateway suite spawns real processes (the hop is a real loopback
# proxy, scale-out is real backend processes behind llmstub latency):
# warm-connection p50 ask latency direct vs proxied, then aggregate
# asks/sec at 1/2/4 backends vs one direct backend. The acceptance
# lines are hop overhead p50 < 150us and 4-backend throughput >= 2.5x.
REPRO_GATEWAY_OUT="$PWD/BENCH_gateway.json" \
  go test -count=1 -timeout 900s -run '^TestGatewayReport$' .
echo "wrote BENCH_gateway.json"
