// Memory-footprint suite for the segmented copy-on-write memory tier:
// resident bytes per idle trained session at N=1k, clone/fork cost,
// snapshot sizes, and a warm-ask regression guard. scripts/bench.sh runs
// TestFootprintReport with REPRO_FOOTPRINT_OUT set to record the numbers
// as BENCH_footprint.json; under plain `go test` the same run asserts
// the acceptance floor (>= 5x reduction, smaller snapshots) with no file
// output.
package repro

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/memory"
	"repro/internal/session"
	"repro/internal/trace"
)

// footprintReport is the JSON shape of BENCH_footprint.json.
type footprintReport struct {
	Suite                 string  `json:"suite"`
	NSessions             int     `json:"n_sessions"`
	MemoryItems           int     `json:"memory_items"`
	FlatBytesPerSession   int64   `json:"flat_bytes_per_session"`
	SegBytesPerSession    int64   `json:"segmented_bytes_per_session"`
	ReductionRatio        float64 `json:"reduction_ratio"`
	FlatCloneNsPerOp      int64   `json:"flat_clone_ns_per_op"`
	SegCloneNsPerOp       int64   `json:"segmented_clone_ns_per_op"`
	SnapshotV1Bytes       int     `json:"snapshot_v1_bytes"`
	SnapshotV2Bytes       int     `json:"snapshot_v2_bytes"`
	SegmentFileBytes      int     `json:"segment_file_bytes"`
	WarmAskNsPerOp        int64   `json:"warm_ask_ns_per_op"`
	SegmentResidentBytes  int64   `json:"segment_resident_bytes"`
	SegmentsInternedTotal int     `json:"segments_interned"`
}

// inlineSnapshot is the retired schema-1 session file, with every memory
// item inline. snapshot_v1_bytes keeps measuring it so the footprint
// record stays comparable across builds.
type inlineSnapshot struct {
	ID      string         `json:"id"`
	Config  session.Config `json:"config"`
	Trained bool           `json:"trained"`
	Created time.Time      `json:"created"`
	Saved   time.Time      `json:"saved"`
	Memory  []memory.Item  `json:"memory"`
	Trace   []trace.Event  `json:"trace"`
}

// heapInUse settles the heap and reads live bytes.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measureClones reports (bytes per clone, ns per clone) for n clones of
// the store held live simultaneously — the shape of n idle resident
// sessions sharing one trained state.
func measureClones(src *memory.Store, n int) (int64, int64) {
	clones := make([]*memory.Store, n)
	before := heapInUse()
	start := time.Now()
	for i := range clones {
		clones[i] = src.Clone()
	}
	elapsed := time.Since(start)
	after := heapInUse()
	runtime.KeepAlive(clones)
	bytesPer := int64(after-before) / int64(n)
	if bytesPer < 0 {
		bytesPer = 0
	}
	return bytesPer, elapsed.Nanoseconds() / int64(n)
}

// TestFootprintReport is the acceptance gate for the segmented memory
// tier: a trained session's idle residency must drop >= 5x versus the
// flat (pre-segment, delta-only) layout, session snapshots must shrink,
// and the segmented ask path must stay byte-identical to the flat one.
func TestFootprintReport(t *testing.T) {
	ctx := context.Background()
	const nSessions = 1000

	bob, _, err := eval.TrainedBob(ctx, eval.DefaultSetup())
	if err != nil {
		t.Fatal(err)
	}
	items := bob.Memory.All()
	if len(bob.Memory.Segments()) == 0 {
		t.Fatal("trained memory has no sealed segment")
	}

	// The flat baseline reproduces the old layout: every item in the
	// mutable delta, so Clone deep-copies the items, the dedup set and
	// every postings list.
	flat := memory.NewStore(memory.DefaultWeights)
	flat.ReplaceItems(items)

	// Byte-identity guard first: the segmented store must answer exactly
	// like the flat one through the whole ask path.
	flatBob, _, err := eval.TrainedBob(ctx, eval.DefaultSetup())
	if err != nil {
		t.Fatal(err)
	}
	flatBob.Memory = flat.Clone()
	segAns, err := bob.Ask(ctx, askQuestion)
	if err != nil {
		t.Fatal(err)
	}
	flatAns, err := flatBob.Ask(ctx, askQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segAns, flatAns) {
		t.Fatalf("segmented ask diverges from flat:\nseg  %+v\nflat %+v", segAns, flatAns)
	}

	flatBytes, flatNs := measureClones(flat, nSessions)
	segBytes, segNs := measureClones(bob.Memory, nSessions)
	if segBytes <= 0 {
		segBytes = 1 // empty-delta clones can vanish below GC noise
	}
	ratio := float64(flatBytes) / float64(segBytes)
	if ratio < 5 {
		t.Errorf("resident bytes per idle session: flat=%d segmented=%d ratio=%.1fx, want >= 5x",
			flatBytes, segBytes, ratio)
	}

	// Snapshot sizes through the real session runtime: the v2 session
	// file versus the same state serialized in the inline shape. The
	// segment file is written once and amortized across every session
	// that shares the segment, so it is reported separately.
	dir := t.TempDir()
	mgr := session.NewManager(session.ManagerConfig{SnapshotDir: dir})
	defer mgr.Shutdown()
	s, err := mgr.Create("fp", session.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	path, err := mgr.Snapshot(ctx, "fp")
	if err != nil {
		t.Fatal(err)
	}
	v2Data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap session.Snapshot
	if err := json.Unmarshal(v2Data, &snap); err != nil {
		t.Fatal(err)
	}
	kpath := filepath.Join(dir, "knowledge.json")
	if err := s.SaveMemory(ctx, kpath); err != nil {
		t.Fatal(err)
	}
	sessItems := memory.NewStore(memory.DefaultWeights)
	if err := sessItems.Load(kpath); err != nil {
		t.Fatal(err)
	}
	v1 := inlineSnapshot{
		ID: snap.ID, Config: snap.Config, Trained: snap.Trained,
		Created: snap.Created, Saved: snap.Saved,
		Memory: sessItems.All(), Trace: snap.Trace,
	}
	v1Data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2Data) >= len(v1Data) {
		t.Errorf("v2 session snapshot (%d bytes) not smaller than the inline form (%d bytes)", len(v2Data), len(v1Data))
	}
	segFileBytes := 0
	for _, ref := range snap.Segments {
		fi, err := os.Stat(filepath.Join(dir, "segments", ref.Fingerprint+".json"))
		if err != nil {
			t.Fatal(err)
		}
		segFileBytes += int(fi.Size())
	}

	// Warm-ask guard: the steady-state ask over an unchanged memory must
	// stay a cache hit, not regress to a full retrieval per call.
	if _, err := bob.Ask(ctx, askQuestion); err != nil {
		t.Fatal(err)
	}
	const warmIters = 200
	start := time.Now()
	for i := 0; i < warmIters; i++ {
		if _, err := bob.Ask(ctx, askQuestion); err != nil {
			t.Fatal(err)
		}
	}
	warmNs := time.Since(start).Nanoseconds() / warmIters
	if warmNs > 5_000_000 {
		t.Errorf("warm ask = %dns/op, want well under 5ms (cache regression)", warmNs)
	}

	segStats := mgr.Stats().MemorySegments
	rep := footprintReport{
		Suite:                 "footprint",
		NSessions:             nSessions,
		MemoryItems:           len(items),
		FlatBytesPerSession:   flatBytes,
		SegBytesPerSession:    segBytes,
		ReductionRatio:        ratio,
		FlatCloneNsPerOp:      flatNs,
		SegCloneNsPerOp:       segNs,
		SnapshotV1Bytes:       len(v1Data),
		SnapshotV2Bytes:       len(v2Data),
		SegmentFileBytes:      segFileBytes,
		WarmAskNsPerOp:        warmNs,
		SegmentResidentBytes:  segStats.ResidentBytes,
		SegmentsInternedTotal: segStats.Segments,
	}
	t.Logf("footprint: flat=%dB/session segmented=%dB/session (%.1fx), clone %dns -> %dns, snapshot v1=%dB v2=%dB (+%dB segment file, amortized), warm ask %dns",
		flatBytes, segBytes, ratio, flatNs, segNs, len(v1Data), len(v2Data), segFileBytes, warmNs)
	if out := os.Getenv("REPRO_FOOTPRINT_OUT"); out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
