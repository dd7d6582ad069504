#!/usr/bin/env bash
# Full local verification: everything CI would run, in dependency order.
# Tier-1 is `go build ./... && go test ./...` (see ROADMAP.md); this adds
# formatting enforcement, vet, the race detector, and a 1-iteration pass
# over the root package's benchmarks (the paper's E1-E13 and A1-A3 plus
# the substrate microbenchmarks) so they cannot rot unnoticed.
set -euo pipefail
cd "$(dirname "$0")/.."

# run_listed [FLAGS...] -run PATTERN PKG...: go test, after checking
# that every |-separated name in PATTERN lists at least one test in
# PKG... (go test -list). A stale name would otherwise make its pass run
# nothing and still report ok.
run_listed() {
  local flags=()
  while [[ $1 != -run ]]; do flags+=("$1"); shift; done
  local pattern=$2 listed name names
  shift 2
  listed=$(go test -list . "$@" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
  IFS='|' read -ra names <<<"$pattern"
  for name in "${names[@]}"; do
    if ! grep -qE -- "$name" <<<"$listed"; then
      echo "check.sh: -run name $name lists no test in $*" >&2
      exit 1
    fi
  done
  go test "${flags[@]}" -run "$pattern" "$@"
}

unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

go build ./...
go vet ./...
go test -race ./...
go test -run='^$' -bench=. -benchtime=1x .

# Hot-path determinism under the race detector: cached vs uncached ask
# byte-identity, the structured fast path against the encoded contract,
# the prompt round-trip fuzz corpus, the incident journal loader's, the
# session snapshot reader's and the SSE resume cursor's (seeds only; no
# -fuzz time).
run_listed -race -run 'TestAskPath|TestSimFastPath|TestEnsembleFastPath|FuzzEncodeRoundTrip|FuzzParse|FuzzStoreLoad|FuzzReadSnapshot|FuzzEventsResume' . ./internal/llm ./internal/prompt ./internal/incident ./internal/session

# Concurrency-heavy paths under the race detector: the remote client
# against a server shaped like the real chat-completions API, the
# fake-clock hedging/singleflight suite and the SSE stream lifecycle
# (cancel mid-investigation, eviction, goroutine-leak checks).
run_listed -race -count=1 -run 'TestRemoteOpenAIContract|TestRemoteSingleflight|TestRemoteHedge|TestLatencyTracker' ./internal/llm/backend
run_listed -race -count=1 -run 'TestStream|TestEventBuffer' ./internal/session

# The segmented memory tier: overlay-vs-combined BM25 byte-identity,
# store concurrency (Clone-vs-Add, KnowledgeText-vs-ReplaceItems, the
# never-stale version-tag contract) and the one snapshot schema (schema
# 3 written for trained and untrained sessions, schema 2 still read,
# sanitized deltas, other schemas and malformed event logs refused), all
# under the race detector; then the footprint acceptance gate (>= 5x
# residency reduction, smaller snapshots, warm-ask guard).
run_listed -race -count=1 -run 'TestOverlay|TestFreeze' ./internal/index
run_listed -race -count=1 -run 'TestSealDelta|TestCloneShares|TestCloneVsAddRace|TestKnowledgeTextVsReplaceRace|TestKnowledgeTextNeverStale|TestReplaceItemsSanitizes|TestRestoreParts|TestIntern' ./internal/memory ./internal/evalcache
run_listed -race -count=1 -run 'TestSnapshotV2|TestSnapshotRestoreColdProcess|TestSnapshotSchemaRefused|TestStatsReportSegments' ./internal/session
run_listed -count=1 -run 'TestFootprintReport' .

# The retrieval pipeline: byte-identity of memory/events/investigation at
# every fan-out width, the cancel-mid-fetch drain (exactly-once context
# error, no goroutine leaks, zeroed in-flight gauges), and concurrent
# fork Search/Fetch under the injected fake clock.
run_listed -race -count=1 -run 'TestRetrievalPipelineByteIdentity|TestSelfLearnSkipsDuplicateURLs|TestSelfLearnCancelNoLeak' ./internal/agent
go test -race -count=1 ./internal/retrieval
run_listed -race -count=1 -run 'TestClock|TestForkConcurrentFetchWithClock' ./internal/websim

# The incident pipeline: atomic claim CAS, lifecycle transition table,
# leader-failure fan-out, cancel-and-reclaim, journal replay and
# compaction across restarts, worker-count byte-identity and the HTTP
# extension (envelopes, 409 invalid_state), all under the race
# detector; then the dedup report (followers and saved rounds on the
# simulator's batch).
go test -race -count=1 ./internal/incident
run_listed -count=1 -run '^TestIncidentPipelineReport$' .

# The gateway tier: ring determinism/balance/minimal-movement, routing
# and fan-out merge through a live two-backend fixture, SSE flushing
# per event through the proxy hop, and the migration protocol (drain ->
# snapshot -> lazy restore, byte-identical answers), plus the metrics
# registry exposition/merge — all under the race detector.
go test -race -count=1 ./internal/gateway ./internal/metrics
run_listed -race -count=1 -run 'TestHTTPMetricsEndpoint|TestHTTPDrainHandoff|TestAdmissionGate' ./internal/session

# End-to-end: websimd -model remote against the llmstub chat-completions
# server, driven over real HTTP (curl) through the /v1 API — including
# an incident filed over POST /v1/incidents and drained to resolved,
# and a two-backend gateway that migrates a session off a removed
# backend and serves merged /v1/metrics.
scripts/smoke.sh

# Performance is measured by the benchmark, not here: bash bench/run.sh
# (see bench/README.md).
