#!/usr/bin/env bash
# Full local verification: everything CI would run, in dependency order.
# Tier-1 is `go build ./... && go test ./...` (see ROADMAP.md); this adds
# formatting enforcement, vet, the race detector, and a 1-iteration pass
# over every benchmark so the bench harness itself cannot rot unnoticed.
set -euo pipefail
cd "$(dirname "$0")/.."

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
# the prompt round-trip fuzz corpus and the incident journal loader's
# (seeds only; no -fuzz time).
go test -race -run 'TestAskPath|TestSimFastPath|TestEnsembleFastPath|FuzzEncodeRoundTrip|FuzzParse|FuzzStoreLoad' . ./internal/llm ./internal/prompt ./internal/incident

# Concurrency-heavy paths under the race detector: the fake-clock
# batching/hedging/singleflight suite and the SSE stream lifecycle
# (cancel mid-investigation, eviction, goroutine-leak checks).
go test -race -count=1 -run 'TestRemoteBatch|TestRemoteSingleflight|TestRemoteHedge|TestLatencyTracker' ./internal/llm/backend
go test -race -count=1 -run 'TestStream|TestEventBuffer' ./internal/session

# The segmented memory tier: overlay-vs-combined BM25 byte-identity,
# store concurrency (Clone-vs-Add, KnowledgeText-vs-ReplaceItems, the
# never-stale version-tag contract) and the snapshot v2/v1 paths, all
# under the race detector; then the footprint acceptance gate (>= 5x
# residency reduction, smaller snapshots, warm-ask guard).
go test -race -count=1 -run 'TestOverlay|TestFreeze' ./internal/index
go test -race -count=1 -run 'TestSealDelta|TestCloneShares|TestCloneVsAddRace|TestKnowledgeTextVsReplaceRace|TestKnowledgeTextNeverStale|TestReplaceItemsSanitizes|TestRestoreParts|TestIntern' ./internal/memory ./internal/evalcache
go test -race -count=1 -run 'TestSnapshotV2|TestSnapshotRestoreColdProcess|TestSnapshotV1FileStillRestores|TestUntrainedSnapshotStaysV1|TestStatsReportSegments' ./internal/session
go test -count=1 -run 'TestFootprintReport' .

# The retrieval pipeline: byte-identity of memory/trace/investigation at
# every fan-out width, the cancel-mid-fetch drain (exactly-once context
# error, no goroutine leaks, zeroed in-flight gauges), and concurrent
# fork Search/Fetch under the injected fake clock.
go test -race -count=1 -run 'TestRetrievalPipelineByteIdentity|TestSelfLearnSkipsDuplicateURLs|TestSelfLearnCancelNoLeak' ./internal/agent
go test -race -count=1 ./internal/retrieval
go test -race -count=1 -run 'TestClock|TestForkConcurrentFetchWithClock' ./internal/websim

# The incident pipeline: atomic claim CAS, lifecycle transition table,
# leader-failure fan-out, cancel-and-reclaim, journal replay and
# compaction across restarts, worker-count byte-identity and the HTTP
# extension (envelopes, 409 invalid_state), all under the race
# detector; then the throughput report (leader-follower vs all-leader).
go test -race -count=1 ./internal/incident
go test -count=1 -run '^TestIncidentPipelineReport$' .

# The gateway tier: ring determinism/balance/minimal-movement, routing
# and fan-out merge through a live two-backend fixture, SSE flushing
# per event through the proxy hop, and the migration protocol (drain ->
# snapshot -> lazy restore, byte-identical answers), plus the metrics
# registry exposition/merge — all under the race detector.
go test -race -count=1 ./internal/gateway ./internal/metrics
go test -race -count=1 -run 'TestHTTPMetricsEndpoint|TestHTTPDrainHandoff|TestAdmissionGate' ./internal/session

# End-to-end: websimd -model remote against the llmstub chat-completions
# server, driven over real HTTP (curl) through the /v1 API — including
# an incident filed over POST /v1/incidents and drained to resolved,
# and a two-backend gateway that migrates a session off a removed
# backend and serves merged /v1/metrics.
scripts/smoke.sh

# Real measurements (and BENCH_sessions.json) are opt-in: scripts/bench.sh
