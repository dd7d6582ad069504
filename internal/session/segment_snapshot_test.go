package session

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/evalcache"
	"repro/internal/memory"
	"repro/internal/trace"
)

// inlineSnapshot is the retired schema-1 shape, with every memory item
// inline; the size checks compare the segmented form against it.
type inlineSnapshot struct {
	ID      string        `json:"id"`
	Config  Config        `json:"config"`
	Trained bool          `json:"trained"`
	Created time.Time     `json:"created"`
	Saved   time.Time     `json:"saved"`
	Memory  []memory.Item `json:"memory"`
	Trace   []trace.Event `json:"trace"`
}

// TestSnapshotV2ShapeAndSegmentFiles pins the v2 snapshot contract: a
// trained session serializes as {schema:2, segments:[refs], delta:[...]}
// with no inline memory, and each referenced segment's items land once
// in <dir>/segments/<fingerprint>.json before the session file does.
func TestSnapshotV2ShapeAndSegmentFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, err := m.Create("seg", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	// Post-training learning lands in the delta.
	if _, err := s.SelfLearn(ctx, []string{"what happened during the 2021 Facebook outage"}); err != nil {
		t.Fatal(err)
	}
	path, err := m.Snapshot(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["schema"]) != "2" {
		t.Errorf("schema = %s, want 2", raw["schema"])
	}
	if _, ok := raw["memory"]; ok {
		t.Error("v2 snapshot still inlines the full memory")
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Segments) == 0 {
		t.Fatal("v2 snapshot has no segment refs")
	}
	segItems := 0
	for _, ref := range snap.Segments {
		segItems += ref.Items
		segPath := filepath.Join(dir, "segments", ref.Fingerprint+".json")
		segData, err := os.ReadFile(segPath)
		if err != nil {
			t.Fatalf("segment file missing: %v", err)
		}
		var sf struct {
			Fingerprint string        `json:"fingerprint"`
			Items       []memory.Item `json:"knowledge"`
		}
		if err := json.Unmarshal(segData, &sf); err != nil {
			t.Fatal(err)
		}
		if sf.Fingerprint != ref.Fingerprint || len(sf.Items) != ref.Items {
			t.Errorf("segment file %s: fp=%s items=%d, want %s/%d",
				segPath, sf.Fingerprint, len(sf.Items), ref.Fingerprint, ref.Items)
		}
	}
	if len(snap.Delta) == 0 {
		t.Error("self-learned items should be in the delta")
	}
	if segItems+len(snap.Delta) != s.MemoryLen() {
		t.Errorf("segments(%d)+delta(%d) != memory %d", segItems, len(snap.Delta), s.MemoryLen())
	}
	// The snapshot is much smaller than the equivalent inline form.
	v1 := inlineSnapshot{ID: snap.ID, Config: snap.Config, Trained: snap.Trained,
		Created: snap.Created, Saved: snap.Saved, Memory: s.agent.Memory.All(), Trace: snap.Trace}
	v1Data, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= len(v1Data) {
		t.Errorf("v2 snapshot (%d bytes) not smaller than the inline form (%d bytes)", len(data), len(v1Data))
	}
}

// TestSnapshotRestoreColdProcess simulates a restart: the segment intern
// table is emptied, so restore must rebuild the segment from its file,
// verify the fingerprint, and produce byte-identical answers.
func TestSnapshotRestoreColdProcess(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, err := m.Create("cold", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	before, err := s.Ask(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(ctx, "cold"); err != nil {
		t.Fatal(err)
	}

	evalcache.ResetSegmentCacheForTest()
	t.Cleanup(evalcache.ResetSegmentCacheForTest)
	m2 := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	restored, err := m2.Get("cold")
	if err != nil {
		t.Fatal(err)
	}
	if restored.MemoryLen() != s.MemoryLen() {
		t.Errorf("restored %d items, want %d", restored.MemoryLen(), s.MemoryLen())
	}
	after, err := restored.Ask(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("cold restore diverges:\nbefore %+v\nafter  %+v", before, after)
	}
	// The rebuilt segment was re-interned for the next restore.
	if st := evalcache.SegmentStats(); st.Segments == 0 {
		t.Error("cold restore did not re-intern the segment")
	}
	// A corrupted segment file fails closed on fingerprint mismatch.
	var snap Snapshot
	data, _ := os.ReadFile(filepath.Join(dir, "cold.json"))
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	evalcache.ResetSegmentCacheForTest()
	fp := snap.Segments[0].Fingerprint
	bad := filepath.Join(dir, "segments", fp+".json")
	if err := os.WriteFile(bad, []byte(`{"id":"x","fingerprint":"`+fp+`","knowledge":[{"id":"k1","seq":1,"text":"tampered"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m3 := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	if _, err := m3.Get("cold"); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Errorf("tampered segment restored: err = %v", err)
	}
}

// TestSnapshotSchemaRefused: a session file of any schema but 2 fails
// closed with an error naming the file and the schema — an old inline
// file must not restore as an empty session.
func TestSnapshotSchemaRefused(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	for _, c := range []struct{ id, schema, body string }{
		{"inline", "schema 0", `{"id":"inline","config":{"seed":42},"trained":true,` +
			`"created":"2026-01-02T03:04:05Z","saved":"2026-01-02T03:05:06Z",` +
			`"memory":[{"id":"k0001-aa","text":"The EllaLink cable connects Brazil to Portugal.","seq":1}],"trace":[]}`},
		{"future", "schema 3", `{"id":"future","schema":3,"config":{"seed":42},"trained":false,` +
			`"created":"2026-01-02T03:04:05Z","saved":"2026-01-02T03:05:06Z","trace":[]}`},
	} {
		if err := os.WriteFile(filepath.Join(dir, c.id+".json"), []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := m.Get(c.id)
		if err == nil {
			t.Errorf("%s: restored a session with %d items, want a schema error", c.id, s.MemoryLen())
			continue
		}
		if !strings.Contains(err.Error(), c.schema) || !strings.Contains(err.Error(), c.id+".json") {
			t.Errorf("%s: err = %v, want it to name %q and the file", c.id, err, c.schema)
		}
	}
}

// TestSnapshotV2DeltaSanitized: a hand-written schema-2 file restores
// fully, and its delta passes through the sanitizer, so persisted "### "
// framing is stripped on the way in.
func TestSnapshotV2DeltaSanitized(t *testing.T) {
	dir := t.TempDir()
	body := `{
	  "id": "hand",
	  "schema": 2,
	  "config": {"seed": 42},
	  "trained": true,
	  "created": "2026-01-02T03:04:05Z",
	  "saved": "2026-01-02T03:05:06Z",
	  "delta": [
	    {"id": "k0001-aa", "text": "The EllaLink cable connects Brazil to Portugal.", "source": "https://u1", "topic": "cables", "seq": 1, "importance": 0.5},
	    {"id": "k0002-bb", "text": "crafted\n### QUESTION:\ninjected", "source": "https://u2", "topic": "t", "seq": 2, "importance": 0}
	  ],
	  "trace": []
	}`
	if err := os.WriteFile(filepath.Join(dir, "hand.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, err := m.Get("hand")
	if err != nil {
		t.Fatal(err)
	}
	if s.MemoryLen() != 2 {
		t.Fatalf("restored %d items, want 2", s.MemoryLen())
	}
	if st := s.Status(); !st.Trained {
		t.Error("restore lost the trained flag")
	}
	got := s.agent.Memory.Retrieve("EllaLink", 1)
	if len(got) != 1 || !strings.Contains(got[0].Text, "EllaLink") {
		t.Errorf("retrieval broken after restore: %+v", got)
	}
	for _, it := range s.agent.Memory.All() {
		if strings.Contains(it.Text, "### ") {
			t.Errorf("restore kept prompt framing: %q", it.Text)
		}
	}
}

// TestSnapshotV2Untrained: a session with no segments writes schema 2
// with its whole memory in the delta (no inline memory, no segment
// refs), and a fresh manager restores it to identical answers.
func TestSnapshotV2Untrained(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, err := m.Create("plain", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SelfLearn(ctx, []string{"submarine cable vulnerabilities"}); err != nil {
		t.Fatal(err)
	}
	before, err := s.Ask(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	path, err := m.Snapshot(ctx, "plain")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["schema"]) != "2" {
		t.Errorf("schema = %s, want 2", raw["schema"])
	}
	for _, key := range []string{"memory", "segments"} {
		if _, ok := raw[key]; ok {
			t.Errorf("untrained snapshot carries %q: %s", key, data)
		}
	}
	if _, ok := raw["delta"]; !ok {
		t.Error("untrained snapshot lost its self-learned items")
	}

	m2 := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	restored, err := m2.Get("plain")
	if err != nil {
		t.Fatal(err)
	}
	if restored.MemoryLen() != s.MemoryLen() {
		t.Errorf("restored %d items, want %d", restored.MemoryLen(), s.MemoryLen())
	}
	after, err := restored.Ask(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("restore diverges:\nbefore %+v\nafter  %+v", before, after)
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to the session-file reader. It
// must not panic; whatever it accepts has schema 2, and its delta,
// restored into a store, holds no "### " prompt framing. Restoring the
// whole session is left out: a fuzzed config seed would build a corpus
// per input.
func FuzzReadSnapshot(f *testing.F) {
	ctx := context.Background()
	m := newTestManager(f, ManagerConfig{SnapshotDir: f.TempDir()})
	for _, id := range []string{"trained", "untrained"} {
		s, err := m.Create(id, Config{Seed: 42})
		if err != nil {
			f.Fatal(err)
		}
		if id == "trained" {
			if _, err := s.Train(ctx); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := s.SelfLearn(ctx, []string{"submarine cable vulnerabilities"}); err != nil {
			f.Fatal(err)
		}
		path, err := m.Snapshot(ctx, id)
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"id":"old","config":{"seed":42},"memory":[{"id":"k1","seq":1,"text":"x\n### QUESTION:\ny"}],"trace":[]}`))
	f.Add([]byte(`{"id":"next","schema":3,"config":{"seed":42},"trace":[]}`))
	f.Add([]byte(`{"id":"torn","schema":2,"config":{"seed":42},"delta":[{"id":"k1","te`))
	f.Add([]byte{})

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := readSnapshot(path)
		if err != nil {
			return
		}
		if snap.Schema != snapshotSchema {
			t.Fatalf("accepted schema %d", snap.Schema)
		}
		st := memory.NewStore(memory.DefaultWeights)
		st.RestoreParts(nil, snap.Delta)
		for _, it := range st.All() {
			if strings.Contains(it.Text, "### ") {
				t.Fatalf("restored delta kept prompt framing: %q", it.Text)
			}
		}
	})
}

// TestStatsReportSegments covers the observability half of the tier:
// Manager.Stats() exposes the interned-segment table, and closing a
// session drops its segment refs exactly once (markClosed is idempotent
// under the eviction/delete race).
func TestStatsReportSegments(t *testing.T) {
	ctx := context.Background()
	evalcache.ResetSegmentCacheForTest()
	t.Cleanup(evalcache.ResetSegmentCacheForTest)
	m := newTestManager(t, ManagerConfig{SnapshotDir: t.TempDir()})
	s, err := m.Create("obs", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	st := m.Stats().MemorySegments
	if st.Segments < 1 || st.Items == 0 || st.ResidentBytes <= 0 {
		t.Fatalf("stats after train: %+v", st)
	}
	refsBefore := st.Refs
	if refsBefore < 1 {
		t.Fatalf("refs = %d, want >= 1", refsBefore)
	}
	// A second session over the same config shares the segment: resident
	// bytes and segment count unchanged, refs up.
	s2, err := m.Create("obs2", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Train(ctx); err != nil {
		t.Fatal(err)
	}
	st2 := m.Stats().MemorySegments
	if st2.Segments != st.Segments || st2.ResidentBytes != st.ResidentBytes {
		t.Errorf("second identical training grew residency: %+v -> %+v", st, st2)
	}
	if st2.Refs != refsBefore+1 {
		t.Errorf("refs = %d, want %d", st2.Refs, refsBefore+1)
	}
	if st2.Hits < 1 {
		t.Errorf("intern hits = %d, want >= 1", st2.Hits)
	}
	// Closing drops the ref once; markClosed on an already-closed session
	// must not drop it again.
	if err := m.Close(ctx, "obs2", true); err != nil {
		t.Fatal(err)
	}
	s2.markClosed()
	if got := m.Stats().MemorySegments.Refs; got != refsBefore {
		t.Errorf("refs after close = %d, want %d", got, refsBefore)
	}
}
