// Memory-footprint report for the segmented copy-on-write memory tier:
// resident bytes per idle trained session at N=1k against the flat
// layout, the session snapshot's size against the inline form, and a
// warm-ask regression guard. Residency under load is measured by
// bench/ (peak_rss_mb and memory_segments.resident_bytes).
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
	"repro/internal/quiz"
	"repro/internal/session"
	"repro/internal/stream"
)

// askQuestion is the paper's headline comparative question; answering it
// exercises retrieval, evidence extraction and comparative reasoning.
var askQuestion = quiz.Conclusions()[0].Question

// inlineSnapshot is the retired schema-1 session file, with every memory
// item inline: the size the segmented snapshot must stay below.
type inlineSnapshot struct {
	ID      string         `json:"id"`
	Config  session.Config `json:"config"`
	Trained bool           `json:"trained"`
	Created time.Time      `json:"created"`
	Saved   time.Time      `json:"saved"`
	Memory  []memory.Item  `json:"memory"`
	Events  []stream.Event `json:"events"`
}

// heapInUse settles the heap and reads live bytes.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cloneBytes reports the live heap bytes per clone for n clones of the
// store held live simultaneously — the shape of n idle resident
// sessions sharing one trained state.
func cloneBytes(src *memory.Store, n int) int64 {
	clones := make([]*memory.Store, n)
	before := heapInUse()
	for i := range clones {
		clones[i] = src.Clone()
	}
	after := heapInUse()
	runtime.KeepAlive(clones)
	return max(int64(after-before)/int64(n), 0)
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

	flatBytes := cloneBytes(flat, nSessions)
	segBytes := max(cloneBytes(bob.Memory, nSessions), 1) // empty-delta clones can vanish below GC noise
	ratio := float64(flatBytes) / float64(segBytes)
	if ratio < 5 {
		t.Errorf("resident bytes per idle session: flat=%d segmented=%d ratio=%.1fx, want >= 5x",
			flatBytes, segBytes, ratio)
	}

	// Snapshot sizes through the real session runtime: the v2 session
	// file versus the same state serialized in the inline shape. The
	// segment file is written once and shared by every session that
	// references the segment, so it is not counted.
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
		Memory: sessItems.All(), Events: snap.Events,
	}
	v1Data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2Data) >= len(v1Data) {
		t.Errorf("v2 session snapshot (%d bytes) not smaller than the inline form (%d bytes)", len(v2Data), len(v1Data))
	}

	// Warm-ask guard: the steady-state ask over an unchanged memory must
	// stay a cache hit, not regress to a full retrieval per call. A warm
	// ask takes tens of microseconds, so the 5 ms bound holds on a loaded
	// machine and trips only when the caches stop hitting.
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
}
