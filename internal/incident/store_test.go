package incident

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/stream"
)

// fixedClock returns a deterministic advancing clock for tests.
func fixedClock() func() time.Time {
	t := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Second)
		return t
	}
}

func newTestStore(t *testing.T, path string) *Store {
	t.Helper()
	return NewStore(StoreConfig{Clock: fixedClock(), Path: path})
}

func TestStoreFileDefaults(t *testing.T) {
	st := newTestStore(t, "")
	inc, err := st.File(Filing{Type: "dns-resolution-failure"})
	if err != nil {
		t.Fatal(err)
	}
	if inc.ID != "inc-000001" {
		t.Errorf("id = %q", inc.ID)
	}
	if inc.Severity != SevWarning || inc.Source != "api" || inc.Title == "" || inc.Question == "" {
		t.Errorf("defaults not applied: %+v", inc)
	}
	if inc.Status != StatusOpen || len(inc.Events) != 1 || inc.Events[0].Kind != EvFiled {
		t.Errorf("filing lifecycle: %+v", inc)
	}

	for _, bad := range []Filing{
		{},
		{Type: "   "},
		{Type: "x", Severity: "catastrophic"},
	} {
		if _, err := st.File(bad); err == nil {
			t.Errorf("File(%+v) accepted", bad)
		}
	}
}

func TestStoreOpenQueueOrder(t *testing.T) {
	st := newTestStore(t, "")
	for _, f := range []Filing{
		{Type: "a", Severity: SevInfo},
		{Type: "b", Severity: SevCritical},
		{Type: "c", Severity: SevWarning},
		{Type: "d", Severity: SevCritical},
	} {
		if _, err := st.File(f); err != nil {
			t.Fatal(err)
		}
	}
	q := st.OpenQueue(0)
	got := make([]string, len(q))
	for i, inc := range q {
		got[i] = inc.Type
	}
	want := []string{"b", "d", "c", "a"} // critical first, then filing order
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("queue order = %v, want %v", got, want)
		}
	}
	if q := st.OpenQueue(2); len(q) != 2 || q[0].Type != "b" || q[1].Type != "d" {
		t.Errorf("limited queue = %+v", q)
	}
}

// TestStoreClaimCAS proves the compare-and-swap: many concurrent
// claimants, exactly one winner per incident. Run under -race.
func TestStoreClaimCAS(t *testing.T) {
	st := newTestStore(t, "")
	inc, err := st.File(Filing{Type: "bgp-route-withdrawal"})
	if err != nil {
		t.Fatal(err)
	}
	const claimants = 32
	var wg sync.WaitGroup
	wins := make(chan int, claimants)
	for i := 0; i < claimants; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st.Claim(inc.ID) {
				wins <- 1
			}
		}()
	}
	wg.Wait()
	close(wins)
	won := 0
	for range wins {
		won++
	}
	if won != 1 {
		t.Fatalf("%d claimants won, want exactly 1", won)
	}
	if got, _ := st.Get(inc.ID); got.Status != StatusClaimed {
		t.Errorf("status = %s", got.Status)
	}
	if st.Claim("inc-999999") {
		t.Error("claimed unknown incident")
	}
}

func TestStoreLifecycleAndRelease(t *testing.T) {
	st := newTestStore(t, "")
	inc, _ := st.File(Filing{Type: "t"})
	if !st.Claim(inc.ID) {
		t.Fatal("claim")
	}
	if err := st.Start(inc.ID, "sess-1", inc.ID); err != nil {
		t.Fatal(err)
	}
	// Starting twice is an illegal transition.
	if err := st.Start(inc.ID, "sess-1", inc.ID); !errors.Is(err, ErrInvalidState) {
		t.Errorf("double start err = %v", err)
	}

	// Release re-queues: the incident is claimable again.
	st.Release(inc.ID)
	got, _ := st.Get(inc.ID)
	if got.Status != StatusOpen || got.Session != "" {
		t.Fatalf("after release: %+v", got)
	}
	if !st.Claim(inc.ID) {
		t.Fatal("released incident not re-claimable")
	}
	if err := st.Start(inc.ID, "sess-2", inc.ID); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(inc.ID, Outcome{Status: StatusResolved, Resolution: "fixed", Confidence: 9, Turns: 2}); err != nil {
		t.Fatal(err)
	}
	got, _ = st.Get(inc.ID)
	if got.Status != StatusResolved || got.Resolution != "fixed" || got.Confidence != 9 || got.Turns != 2 {
		t.Errorf("resolved record: %+v", got)
	}
	// Terminal incidents are immune to Release and late Close.
	st.Release(inc.ID)
	if err := st.Close(inc.ID, Outcome{Status: StatusEscalated}); !errors.Is(err, ErrInvalidState) {
		t.Errorf("close after terminal err = %v", err)
	}
	// Event log is strictly ordered with increasing seq.
	for i, e := range got.Events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d seq = %d", i, e.Seq)
		}
	}
}

// TestStoreTransitionTable pins the manual-transition rules the API's
// invalid_state (409) mapping relies on.
func TestStoreTransitionTable(t *testing.T) {
	cases := []struct {
		name  string
		setup func(st *Store, id string)
		to    Status
		ok    bool
	}{
		{"resolve open", func(*Store, string) {}, StatusResolved, true},
		{"escalate open", func(*Store, string) {}, StatusEscalated, true},
		{"resolve claimed", func(st *Store, id string) { st.Claim(id) }, StatusResolved, true},
		{"escalate investigating", func(st *Store, id string) {
			st.Claim(id)
			st.Start(id, "s", id)
		}, StatusEscalated, true},
		{"resolve resolved", func(st *Store, id string) {
			st.Transition(id, StatusResolved, "")
		}, StatusResolved, false},
		{"escalate resolved", func(st *Store, id string) {
			st.Transition(id, StatusResolved, "")
		}, StatusEscalated, false},
		{"resolve escalated", func(st *Store, id string) {
			st.Transition(id, StatusEscalated, "")
		}, StatusResolved, false},
		{"to open", func(*Store, string) {}, StatusOpen, false},
		{"to claimed", func(*Store, string) {}, StatusClaimed, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := newTestStore(t, "")
			inc, _ := st.File(Filing{Type: "t"})
			tc.setup(st, inc.ID)
			_, err := st.Transition(inc.ID, tc.to, "note")
			if tc.ok && err != nil {
				t.Fatalf("transition: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrInvalidState) {
				t.Fatalf("err = %v, want ErrInvalidState", err)
			}
		})
	}
	st := newTestStore(t, "")
	if _, err := st.Transition("inc-404", StatusResolved, ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id err = %v", err)
	}
}

func TestStoreObserverBridge(t *testing.T) {
	st := newTestStore(t, "")
	inc, _ := st.File(Filing{Type: "t"})
	obs := st.Observer(inc.ID)
	obs(stream.Event{Type: stream.EventOp, Text: "investigate"})
	obs(stream.Event{Type: stream.EventRound, Round: 1, Confidence: 8, Verdict: "yes"})
	obs(stream.Event{Type: stream.EventAnswer, Text: "done", Confidence: 8})

	got, _ := st.Get(inc.ID)
	kinds := make([]string, 0, len(got.Events))
	for _, e := range got.Events {
		kinds = append(kinds, e.Kind)
	}
	want := []string{EvFiled, stream.EventOp, stream.EventRound, stream.EventAnswer}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
}

// TestStoreSnapshotRoundTrip proves restart persistence: terminal
// records survive byte-for-byte and in-flight incidents come back open
// (re-claimable), never stranded under a dead claim.
func TestStoreSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.json")
	st := newTestStore(t, path)

	done, _ := st.File(Filing{Type: "resolved-type", Severity: SevCritical})
	st.Claim(done.ID)
	st.Start(done.ID, "s", done.ID)
	if err := st.Close(done.ID, Outcome{Status: StatusResolved, Resolution: "root cause", Confidence: 8, Turns: 3}); err != nil {
		t.Fatal(err)
	}
	inflight, _ := st.File(Filing{Type: "inflight-type"})
	st.Claim(inflight.ID)
	st.Start(inflight.ID, "s2", inflight.ID)
	// Force a persist that captures the in-flight claim (Start alone
	// does not persist; a reopen does).
	st.Release(inflight.ID)
	st.Claim(inflight.ID)
	queued, _ := st.File(Filing{Type: "queued-type"})

	re := newTestStore(t, path)
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	gotDone, err := re.Get(done.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantDone, _ := st.Get(done.ID)
	if gotDone.Status != StatusResolved || gotDone.Resolution != wantDone.Resolution || len(gotDone.Events) != len(wantDone.Events) {
		t.Errorf("restored terminal record: %+v want %+v", gotDone, wantDone)
	}
	if got, _ := re.Get(queued.ID); got.Status != StatusOpen {
		t.Errorf("queued incident restored as %s", got.Status)
	}
	// Claims do not persist on their own: the last durable state of the
	// in-flight incident is its reopen, so it restores open and claimable.
	if got, _ := re.Get(inflight.ID); got.Status != StatusOpen {
		t.Errorf("in-flight incident restored as %s, want open", got.Status)
	}
	if !re.Claim(inflight.ID) {
		t.Error("restored incident not claimable")
	}
	// Load compacted the journal to exactly one line per incident.
	if n := journalLines(t, path); n != 3 {
		t.Errorf("compacted journal has %d lines, want 3", n)
	}
	// IDs continue after the restored sequence instead of colliding.
	next, err := re.File(Filing{Type: "post-restore"})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "inc-000004" {
		t.Errorf("post-restore id = %s, want inc-000004", next.ID)
	}
	if _, err := re.Transition(inflight.ID, StatusEscalated, "paged"); err != nil {
		t.Fatal(err)
	}
	// Both transitions landed in the file at path, not in the inode the
	// compaction replaced.
	if n := journalLines(t, path); n != 5 {
		t.Errorf("journal after two transitions has %d lines, want 5", n)
	}

	// Second restart: every record comes back and the sequence holds.
	re2 := newTestStore(t, path)
	if err := re2.Load(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{done.ID, inflight.ID, queued.ID, next.ID} {
		want, _ := re.Get(id)
		got, err := re2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("second restore of %s:\n got %+v\nwant %+v", id, got, want)
		}
	}
	if n := journalLines(t, path); n != 4 {
		t.Errorf("second compaction left %d lines, want 4", n)
	}
	if got, err := re2.File(Filing{Type: "post-second-restore"}); err != nil || got.ID != "inc-000005" {
		t.Errorf("post-second-restore id = %s (%v), want inc-000005", got.ID, err)
	}
}

// journalLines counts the complete lines of the journal at path.
func journalLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte{'\n'})
}

// journalLine renders one journal record the way the store writes it.
func journalLine(t testing.TB, seq int64, inc Incident) string {
	data, err := json.Marshal(journalRecord{Seq: seq, Filed: seq, Incident: &inc})
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// TestStoreLoadJournal pins replay: the last line per ID wins, a torn
// final line is dropped, and a bad line before it fails the load.
func TestStoreLoadJournal(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	rec := func(id string, status Status) Incident {
		inc := Incident{ID: id, Type: "t", Status: status, Created: at, Updated: at}
		if status != StatusOpen {
			inc.Session = "s"
		}
		return inc
	}
	a, b := journalLine(t, 1, rec("inc-000001", StatusOpen)), journalLine(t, 2, rec("inc-000002", StatusOpen))
	aDone := journalLine(t, 2, rec("inc-000001", StatusResolved))
	torn := func(line string) string { return line[:len(line)/2] }
	cases := []struct {
		name    string
		data    string
		wantErr bool
		want    map[string]Status // every incident, by ID
	}{
		{"empty", "", false, map[string]Status{}},
		{"last line per id wins", a + b + aDone, false, map[string]Status{"inc-000001": StatusResolved, "inc-000002": StatusOpen}},
		{"torn tail", a + b + torn(aDone), false, map[string]Status{"inc-000001": StatusOpen, "inc-000002": StatusOpen}},
		{"torn only line", torn(a), false, map[string]Status{}},
		{"complete line missing its newline", a + strings.TrimSuffix(b, "\n"), false, map[string]Status{"inc-000001": StatusOpen}},
		{"in-flight reopens", journalLine(t, 1, rec("inc-000001", StatusInvestigating)), false, map[string]Status{"inc-000001": StatusOpen}},
		{"corrupt middle line", a + "{not json\n" + b, true, nil},
		{"torn earlier line", torn(a) + "\n" + b, true, nil},
		{"blank middle line", a + "\n" + b, true, nil},
		{"line without incident", a + `{"seq":3}` + "\n" + b, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "incidents.json")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			st := newTestStore(t, path)
			err := st.Load()
			if tc.wantErr {
				if err == nil {
					t.Fatal("load accepted a corrupt journal")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]Status{}
			for _, inc := range st.List("") {
				got[inc.ID] = inc.Status
				if inc.Status == StatusOpen && inc.Session != "" {
					t.Errorf("%s reopened still holding session %q", inc.ID, inc.Session)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("loaded %v, want %v", got, tc.want)
			}
			if n := journalLines(t, path); n != len(tc.want) {
				t.Errorf("compacted journal has %d lines, want %d", n, len(tc.want))
			}
		})
	}
}

// TestStorePersistErrors proves a failing journal is counted, never
// fails the transition, and heals by rewriting the whole store.
func TestStorePersistErrors(t *testing.T) {
	// A journal whose directory cannot exist: its parent is a file. Load
	// refuses such a path outright, so this store never loads.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, filepath.Join(blocker, "snapshots", "incidents.json"))
	if err := st.Load(); err == nil {
		t.Error("Load under a regular file succeeded")
	}
	for i := 1; i <= 2; i++ {
		inc, err := st.File(Filing{Type: "t"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(inc.ID); err != nil {
			t.Fatal(err)
		}
		if got := st.Stats().PersistErrors; got != int64(i) {
			t.Errorf("after filing %d: persist_errors = %d, want %d", i, got, i)
		}
	}

	// A directory that is merely missing is created by the first write.
	path := filepath.Join(t.TempDir(), "snapshots", "incidents.json")
	st = newTestStore(t, path)
	if err := st.Load(); err != nil {
		t.Fatal(err)
	}
	st.File(Filing{Type: "t"})
	if got := st.Stats().PersistErrors; got != 0 {
		t.Errorf("missing dir: persist_errors = %d, want 0", got)
	}
	if n := journalLines(t, path); n != 1 {
		t.Errorf("missing dir: journal has %d lines, want 1", n)
	}

	// A write that fails mid-journal drops the handle; the next persist
	// rewrites every incident rather than appending after a torn line.
	path = filepath.Join(t.TempDir(), "incidents.json")
	st = newTestStore(t, path)
	a, _ := st.File(Filing{Type: "a"})
	st.mu.Lock()
	st.journal.Close()
	st.mu.Unlock()
	st.File(Filing{Type: "b"})
	if got := st.Stats().PersistErrors; got != 1 {
		t.Errorf("persist_errors = %d, want 1", got)
	}
	st.Transition(a.ID, StatusResolved, "fixed")
	if n := journalLines(t, path); n != 2 {
		t.Errorf("healed journal has %d lines, want 2", n)
	}
	re := newTestStore(t, path)
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	if got := re.List(""); len(got) != 2 || got[0].Status != StatusResolved {
		t.Errorf("healed journal restored %+v", got)
	}
}

// FuzzStoreLoad feeds arbitrary bytes to Load as the journal. A load
// either fails or yields a store whose compacted journal reloads to the
// same records, one line per incident, and whose next filing gets a
// fresh ID.
func FuzzStoreLoad(f *testing.F) {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	line := func(seq int64, id string, status Status) string {
		return journalLine(f, seq, Incident{ID: id, Type: "t", Status: status, Created: at, Updated: at,
			Events: []Event{{Seq: 1, Time: at, Kind: EvFiled}}})
	}
	a, b := line(1, "inc-000001", StatusOpen), line(2, "inc-000002", StatusResolved)
	f.Add([]byte(""))
	f.Add([]byte(a + b[:len(b)/2]))
	f.Add([]byte(a + "{corrupt\n" + b))
	f.Add([]byte(a + b + line(2, "inc-000001", StatusClaimed)))
	f.Add([]byte(line(0, "inc-000001", StatusOpen))) // ID ahead of its sequence
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "incidents.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st := newTestStore(t, path)
		if err := st.Load(); err != nil {
			return
		}
		n := len(st.List(""))
		if got := journalLines(t, path); got != n {
			t.Fatalf("compacted journal has %d lines for %d incidents", got, n)
		}
		re := newTestStore(t, path)
		if err := re.Load(); err != nil {
			t.Fatalf("compacted journal does not reload: %v", err)
		}
		if !bytes.Equal(records(t, re), records(t, st)) || re.Stats() != st.Stats() {
			t.Fatal("compacted journal reloads to a different store")
		}
		inc, err := st.File(Filing{Type: "t"})
		if err != nil {
			t.Fatalf("filing after load: %v", err)
		}
		if _, err := re.Get(inc.ID); err == nil {
			t.Fatalf("filing after load reused ID %s", inc.ID)
		}
	})
}

// TestStoreJournalCatchesUpTerminalLogs closes an incident by hand while
// its investigation still runs: the events that arrive afterwards reach
// the journal with the next persist of any incident.
func TestStoreJournalCatchesUpTerminalLogs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.json")
	st := newTestStore(t, path)
	inc, _ := st.File(Filing{Type: "t"})
	st.Claim(inc.ID)
	st.Start(inc.ID, "s", inc.ID)
	if _, err := st.Transition(inc.ID, StatusResolved, "operator fixed it"); err != nil {
		t.Fatal(err)
	}
	st.Observer(inc.ID)(stream.Event{Type: stream.EventRound, Round: 1, Confidence: 8, Verdict: "yes"})
	st.File(Filing{Type: "other"})

	re := newTestStore(t, path)
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	want, _ := st.Get(inc.ID)
	got, _ := re.Get(inc.ID)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored %d events, want %d:\n got %+v\nwant %+v", len(got.Events), len(want.Events), got, want)
	}
}

// TestStoreJournalReplaysDrain drains the sim batch against a journal
// and restarts: every terminal incident comes back deep-equal to the
// in-memory record, event logs included.
func TestStoreJournalReplaysDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incidents.json")
	st := NewStore(StoreConfig{Clock: constClock(), Path: path})
	batch := SimBatch(42)
	if _, err := FileAll(st, batch); err != nil {
		t.Fatal(err)
	}
	proc := NewProcessor(st, newTestManager(t), ProcessorConfig{Workers: 4, Session: session.Config{Seed: 42}})
	if err := proc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	re := NewStore(StoreConfig{Clock: constClock(), Path: path})
	if err := re.Load(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().PersistErrors != 0 || len(re.List("")) != len(batch) {
		t.Fatalf("stats %+v, restored %d of %d", st.Stats(), len(re.List("")), len(batch))
	}
	for _, sum := range st.List("") {
		want, _ := st.Get(sum.ID)
		got, err := re.Get(sum.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Status.Terminal() {
			t.Errorf("%s left %s", want.ID, want.Status)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s restored with %d events, want %d:\n got %+v\nwant %+v", want.ID, len(got.Events), len(want.Events), got, want)
		}
	}
}

func TestStoreStats(t *testing.T) {
	st := newTestStore(t, "")
	a, _ := st.File(Filing{Type: "a"})
	b, _ := st.File(Filing{Type: "b"})
	st.File(Filing{Type: "c"})
	st.Claim(a.ID)
	st.Start(a.ID, "s", a.ID)
	st.Close(a.ID, Outcome{Status: StatusResolved})
	st.Claim(b.ID)

	s := st.Stats()
	if s.Filed != 3 || s.QueueDepth != 1 || s.Claimed != 1 || s.Resolved != 1 || s.Escalated != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStoreFileExplicitID(t *testing.T) {
	st := newTestStore(t, "")
	inc, err := st.File(Filing{ID: "inc-g000042", Type: "bgp-leak"})
	if err != nil {
		t.Fatal(err)
	}
	if inc.ID != "inc-g000042" {
		t.Errorf("id = %q, want the explicit one", inc.ID)
	}
	// The explicit ID did not advance the store's own sequence.
	next, err := st.File(Filing{Type: "bgp-leak"})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "inc-000001" {
		t.Errorf("sequence id after explicit filing = %q, want inc-000001", next.ID)
	}
	// Duplicates and illegal charsets are rejected.
	if _, err := st.File(Filing{ID: "inc-g000042", Type: "bgp-leak"}); err == nil {
		t.Error("duplicate explicit id accepted")
	}
	for _, bad := range []string{"has space", "dot.dot", strings.Repeat("x", 65)} {
		if _, err := st.File(Filing{ID: bad, Type: "bgp-leak"}); err == nil {
			t.Errorf("File with id %q accepted", bad)
		}
	}
	if st.Stats().Filed != 2 {
		t.Errorf("filed = %d, want 2", st.Stats().Filed)
	}
}
