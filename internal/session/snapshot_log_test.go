package session

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
)

// askedSnapshot writes the snapshot of a trained session that has
// answered one question, as a session of the ask-churn workload looks,
// and returns its path.
func askedSnapshot(t *testing.T, dir, id string) string {
	t.Helper()
	ctx := context.Background()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, err := m.Create(id, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask(ctx, vulnQuestion); err != nil {
		t.Fatal(err)
	}
	path, err := m.Snapshot(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshotParts reads a schema-4 session file and returns the whole
// file, its head, and its event log lines, undecoded.
func snapshotParts(t *testing.T, path string) ([]byte, Snapshot, []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, log, _ := bytes.Cut(data, []byte("\n"))
	var snap Snapshot
	if err := json.Unmarshal(head, &snap); err != nil {
		t.Fatal(err)
	}
	return data, snap, log
}

// TestRestoreEvictKeepsLogBytes: a restored session that records new
// events and is then evicted writes its restored log lines back byte
// for byte, followed by one line per new event; a snapshot of it after
// the next restore writes the same log again.
func TestRestoreEvictKeepsLogBytes(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := askedSnapshot(t, dir, "keep")
	_, head, log := snapshotParts(t, path)

	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: dir})
	s, err := m.Get("keep")
	if err != nil {
		t.Fatal(err)
	}
	last := s.LastEventID()
	for range 2 {
		if _, err := s.Ask(ctx, vulnQuestion); err != nil {
			t.Fatal(err)
		}
	}
	added, _, _, err := s.Events(last)
	if err != nil || len(added) == 0 {
		t.Fatalf("events after the restored log: %d, %v", len(added), err)
	}
	if _, err := m.Create("other", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	m.Flush()

	data, evicted, evictedLog := snapshotParts(t, path)
	if !bytes.HasPrefix(evictedLog, log) {
		t.Fatalf("eviction rewrote the restored log lines:\nbefore %.300s\nafter  %.300s", log, evictedLog)
	}
	if got := splitSnapshot(t, data, &Snapshot{})[head.LogLen:]; !reflect.DeepEqual(got, added) {
		t.Errorf("lines after the restored log:\n got %+v\nwant %+v", got, added)
	}
	if evicted.LogFirst != head.LogFirst || evicted.LogLen != head.LogLen+len(added) {
		t.Errorf("evicted head log_first %d log_len %d, want %d and %d",
			evicted.LogFirst, evicted.LogLen, head.LogFirst, head.LogLen+len(added))
	}

	if _, err := m.Get("keep"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(ctx, "keep"); err != nil {
		t.Fatal(err)
	}
	if _, _, again := snapshotParts(t, path); !bytes.Equal(again, evictedLog) {
		t.Errorf("snapshot after restore changed the log:\nbefore %.300s\nafter  %.300s", evictedLog, again)
	}
}

// TestSnapshotLogLazy: a restored log is not decoded until a history
// read. A snapshot whose log holds a line with the right leading ID but
// a body that does not decode restores and answers an ask; its eviction
// writes that line back unchanged; only a read of the history — Events
// from before the restored window, GET /trace, or /events with such a
// cursor — fails, with an error naming the file.
func TestSnapshotLogLazy(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := askedSnapshot(t, dir, "lazy")
	data, head, log := snapshotParts(t, path)
	lines := bytes.SplitAfter(log, []byte("\n"))
	prefix := fmt.Sprintf(`{"id":%d,`, head.LogFirst+1)
	if !bytes.HasPrefix(lines[1], []byte(prefix)) {
		t.Fatalf("second log line %q does not open with %s", lines[1], prefix)
	}
	lines[1] = []byte(prefix + `"type":"op","step":"two"}` + "\n")
	bad := bytes.Join(lines, nil)
	if err := os.WriteFile(path, append(data[:len(data)-len(log)], bad...), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: dir})
	s, err := m.Get("lazy")
	if err != nil {
		t.Fatal(err)
	}
	last := s.LastEventID()
	if _, err := s.Ask(ctx, vulnQuestion); err != nil {
		t.Fatal(err)
	}
	added, _, _, err := s.Events(last)
	if err != nil || len(added) == 0 || added[0].ID != last+1 {
		t.Fatalf("events after the restored log: %+v, %v", added, err)
	}

	if _, err := m.Create("other", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if _, _, evictedLog := snapshotParts(t, path); !bytes.HasPrefix(evictedLog, bad) {
		t.Fatalf("eviction did not write the undecoded log back unchanged:\nwant prefix %.300s\ngot %.300s", bad, evictedLog)
	}

	s, err = m.Get("lazy")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Events(0); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("history read of the broken log: err = %v, want one naming %s", err, path)
	}
	h := Handler(m)
	serve := func(target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		return rec
	}
	for _, target := range []string{"/v1/sessions/lazy/trace", "/v1/sessions/lazy/events?once=1&after=0"} {
		rec := serve(target)
		var resp ErrorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &resp)
		if rec.Code != http.StatusInternalServerError || resp.Error.Code != "internal" || !strings.Contains(resp.Error.Message, path) {
			t.Errorf("GET %s = %d %s, want 500 internal naming %s", target, rec.Code, rec.Body, path)
		}
	}
	// Reads after the restored window never touch the broken line.
	last = s.LastEventID()
	if _, err := s.Ask(ctx, vulnQuestion); err != nil {
		t.Fatal(err)
	}
	if evs, _, _, err := s.Events(last); err != nil || len(evs) == 0 {
		t.Errorf("events after the restored log: %d, %v", len(evs), err)
	}
	if rec := serve(fmt.Sprintf("/v1/sessions/lazy/events?once=1&after=%d", last)); rec.Code != http.StatusOK {
		t.Errorf("events after the restored log over SSE: %d %s", rec.Code, rec.Body)
	}
}

// TestSnapshotSchema3Restores: a schema-3 file, written by the encoder
// of that schema with the log inline as "events", restores with its
// events and IDs intact and answers as before; the session's next
// snapshot is schema 4.
func TestSnapshotSchema3Restores(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, err := m.Create("three", Config{Seed: 42})
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
	path, err := m.Snapshot(ctx, "three")
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := s.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := snapshotParts(t, path)
	var v3 snapshotV3
	v3.Events = splitSnapshot(t, data, &v3)
	v3.Schema = snapshotSchemaV3
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(f).Encode(v3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	r, err := m2.Get("three")
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _, err := r.Events(0); err != nil || !reflect.DeepEqual(got, log) {
		t.Fatalf("schema-3 restore changed the log (%v):\nbefore %+v\nafter  %+v", err, log, got)
	}
	if r.MemoryLen() != s.MemoryLen() || !r.Status().Trained {
		t.Errorf("schema-3 restore: %d items trained=%v, want %d trained", r.MemoryLen(), r.Status().Trained, s.MemoryLen())
	}
	after, err := r.Ask(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("schema-3 restore answers differently:\nbefore %+v\nafter  %+v", before, after)
	}
	last := log[len(log)-1].ID
	if next, _, _, err := r.Events(last); err != nil || len(next) == 0 || next[0].ID != last+1 {
		t.Errorf("next event after a schema-3 restore: %+v (%v), want ID %d", next, err, last+1)
	}
	if _, err := m2.Snapshot(ctx, "three"); err != nil {
		t.Fatal(err)
	}
	if _, head, _ := snapshotParts(t, path); head.Schema != snapshotSchema {
		t.Errorf("snapshot after a schema-3 restore has schema %d, want %d", head.Schema, snapshotSchema)
	}
}
