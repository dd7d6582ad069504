package incident

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/stream"
	"repro/internal/websim"
)

// constClock returns the same instant forever: with it, a drained
// batch's records carry no timing at all and can be compared
// byte-for-byte across worker counts.
func constClock() func() time.Time {
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return at }
}

func newTestManager(t *testing.T) *session.Manager {
	t.Helper()
	m := session.NewManager(session.ManagerConfig{Defaults: session.Config{Seed: 42}})
	t.Cleanup(m.Shutdown)
	return m
}

// drainBatch files the filings into a fresh store and drains it with
// the given worker count, returning the store for inspection.
func drainBatch(t *testing.T, filings []Filing, cfg ProcessorConfig) (*Store, *Processor) {
	t.Helper()
	st := NewStore(StoreConfig{Clock: constClock()})
	if _, err := FileAll(st, filings); err != nil {
		t.Fatal(err)
	}
	proc := NewProcessor(st, newTestManager(t), cfg)
	if err := proc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	return st, proc
}

// records serializes every full incident record (event logs included)
// in ID order — the byte-identity unit of the determinism tests.
func records(t *testing.T, st *Store) []byte {
	t.Helper()
	var all []Incident
	for _, sum := range st.List("") {
		inc, err := st.Get(sum.ID)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, inc)
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestProcessorDrainsSimBatch drains the full simulator-generated batch
// unattended: >= 20 mixed-type incidents, every one terminal afterwards,
// with leader-follower dedup doing real work.
func TestProcessorDrainsSimBatch(t *testing.T) {
	batch := SimBatch(42)
	if len(batch) < 20 {
		t.Fatalf("sim batch has %d incidents, want >= 20", len(batch))
	}
	types := map[string]bool{}
	for _, f := range batch {
		types[f.Type] = true
	}
	if len(types) < 3 {
		t.Fatalf("sim batch has %d types, want mixed", len(types))
	}

	st, proc := drainBatch(t, batch, ProcessorConfig{Workers: 4, Session: session.Config{Seed: 42}})

	leaders, followers := 0, 0
	for _, sum := range st.List("") {
		inc, err := st.Get(sum.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !inc.Status.Terminal() {
			t.Errorf("%s (%s) left %s", inc.ID, inc.Type, inc.Status)
		}
		if inc.Leader == "" {
			t.Errorf("%s has no leader", inc.ID)
			continue
		}
		if inc.Leader == inc.ID {
			leaders++
			if inc.Status == StatusResolved && inc.Turns == 0 {
				t.Errorf("leader %s resolved with 0 turns", inc.ID)
			}
		} else {
			followers++
			if inc.Turns != 0 {
				t.Errorf("follower %s ran %d turns, want 0", inc.ID, inc.Turns)
			}
			if inc.Status == StatusResolved && inc.Hint == "" {
				t.Errorf("resolved follower %s has no hint", inc.ID)
			}
		}
	}
	if leaders != len(types) {
		t.Errorf("leaders = %d, want one per type (%d)", leaders, len(types))
	}
	if followers != len(batch)-len(types) {
		t.Errorf("followers = %d, want %d", followers, len(batch)-len(types))
	}

	ps := proc.Stats()
	if ps.Leaders == 0 || ps.Followers == 0 {
		t.Errorf("processor stats = %+v", ps)
	}
	if resolvedFollowers := ps.Followers; resolvedFollowers > 0 && ps.SavedRounds == 0 {
		t.Errorf("followers resolved but saved_rounds = 0: %+v", ps)
	}
	ss := st.Stats()
	if ss.QueueDepth != 0 || ss.Claimed != 0 || ss.Investigating != 0 {
		t.Errorf("store left non-terminal work: %+v", ss)
	}
	if int(ss.Resolved+ss.Escalated) != len(batch) {
		t.Errorf("resolved+escalated = %d, want %d", ss.Resolved+ss.Escalated, len(batch))
	}
}

// TestProcessorDeterministicAcrossWorkers is the acceptance bar: the
// same batch drained at -incident-workers 1, 2 and 8 yields
// byte-identical full records (status, resolutions, hints, event logs,
// self-learning search and fetch lines included).
func TestProcessorDeterministicAcrossWorkers(t *testing.T) {
	batch := SimBatch(42)
	var base []byte
	for _, workers := range []int{1, 2, 8} {
		st, _ := drainBatch(t, batch, ProcessorConfig{Workers: workers, Session: session.Config{Seed: 42}})
		got := records(t, st)
		if base == nil {
			base = got
			if !leaderLogsRetrieval(t, st) {
				t.Fatal("no resolved leader's log holds a non-empty search line and a non-empty fetch line")
			}
			continue
		}
		if string(got) != string(base) {
			t.Fatalf("workers=%d produced different records than workers=1", workers)
		}
	}
}

// leaderLogsRetrieval reports whether some resolved leader's event log
// holds a rendered search line and a rendered fetch line.
func leaderLogsRetrieval(t *testing.T, st *Store) bool {
	t.Helper()
	for _, sum := range st.List("") {
		inc, err := st.Get(sum.ID)
		if err != nil {
			t.Fatal(err)
		}
		if inc.Leader != inc.ID || inc.Status != StatusResolved {
			continue
		}
		search, fetch := false, false
		for _, e := range inc.Events {
			search = search || (e.Kind == stream.EventSearch && e.Text != "")
			fetch = fetch || (e.Kind == stream.EventFetch && e.Text != "")
		}
		if search && fetch {
			return true
		}
	}
	return false
}

// TestProcessorLeaderFailureEscalates pins the failure fan-out: when
// the leader cannot investigate at all (its session is unbuildable),
// the whole group — leader and followers — escalates rather than
// hanging open.
func TestProcessorLeaderFailureEscalates(t *testing.T) {
	filings := []Filing{
		{Type: "doomed", Severity: SevCritical},
		{Type: "doomed"},
		{Type: "doomed"},
	}
	st, _ := drainBatch(t, filings, ProcessorConfig{
		Workers: 2,
		Session: session.Config{Seed: 42, Model: "no-such-backend"},
	})
	for _, sum := range st.List("") {
		inc, _ := st.Get(sum.ID)
		if inc.Status != StatusEscalated {
			t.Errorf("%s = %s, want escalated", inc.ID, inc.Status)
		}
		last := inc.Events[len(inc.Events)-1]
		if last.Kind != EvEscalated || !strings.Contains(last.Text, "leader session unavailable") {
			t.Errorf("%s escalation event = %+v", inc.ID, last)
		}
	}
}

// TestProcessorMaxTurnsEscalates pins max-turns escalation: a leader
// that never clears the confidence threshold escalates its group with
// the turn budget recorded.
func TestProcessorMaxTurnsEscalates(t *testing.T) {
	filings := []Filing{{Type: "hopeless"}, {Type: "hopeless"}}
	cfg := ProcessorConfig{Workers: 1, MaxTurns: 1, Session: session.Config{Seed: 42}}
	// Confidence is scored 0-10; an 11 threshold is unreachable.
	cfg.Session.AgentConfig.ConfidenceThreshold = 11
	st, proc := drainBatch(t, filings, cfg)
	for _, sum := range st.List("") {
		inc, _ := st.Get(sum.ID)
		if inc.Status != StatusEscalated {
			t.Errorf("%s = %s, want escalated", inc.ID, inc.Status)
		}
		last := inc.Events[len(inc.Events)-1]
		if !strings.Contains(last.Text, "below threshold") {
			t.Errorf("%s escalation event = %+v", inc.ID, last)
		}
	}
	if ps := proc.Stats(); ps.Followers != 0 {
		t.Errorf("escalated group counted followers: %+v", ps)
	}
}

// TestProcessorCancelReclaimable pins the interruption contract: a
// drain cancelled mid-investigation releases its incidents back to
// open, and a later drain claims and finishes them.
func TestProcessorCancelReclaimable(t *testing.T) {
	st := NewStore(StoreConfig{Clock: constClock()})
	if _, err := FileAll(st, []Filing{{Type: "slow-a"}, {Type: "slow-a"}, {Type: "slow-b"}}); err != nil {
		t.Fatal(err)
	}
	// Simulated per-request web latency keeps the investigation running
	// long enough to be cancelled mid-flight.
	slow := ProcessorConfig{Workers: 2, Session: session.Config{
		Seed:       42,
		WebOptions: websim.Options{Latency: 50 * time.Millisecond},
	}}
	proc := NewProcessor(st, newTestManager(t), slow)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- proc.Drain(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st.Stats().Investigating > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no incident reached investigating")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled drain err = %v", err)
	}

	// Everything non-terminal is back to open — nothing stranded in
	// claimed or investigating under the dead drain.
	ss := st.Stats()
	if ss.Claimed != 0 || ss.Investigating != 0 {
		t.Fatalf("after cancel: %+v", ss)
	}
	if ss.QueueDepth == 0 {
		t.Fatal("cancelled drain left nothing to re-claim")
	}

	// A fresh drain (fast web this time) finishes the released work.
	fast := slow
	fast.Session.WebOptions = websim.Options{}
	redo := NewProcessor(st, newTestManager(t), fast)
	if err := redo.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ss = st.Stats()
	if ss.QueueDepth != 0 || ss.Claimed != 0 || ss.Investigating != 0 {
		t.Errorf("re-drain left open work: %+v", ss)
	}
	if int(ss.Resolved+ss.Escalated) != 3 {
		t.Errorf("re-drain terminal count = %d, want 3", ss.Resolved+ss.Escalated)
	}
}

// TestProcessorConcurrentDrains runs two processors over one store
// under -race: the claim CAS must hand every incident to exactly one of
// them, and both must finish with the queue fully drained.
func TestProcessorConcurrentDrains(t *testing.T) {
	st := NewStore(StoreConfig{Clock: constClock()})
	batch := SimBatch(42)
	if _, err := FileAll(st, batch); err != nil {
		t.Fatal(err)
	}
	mgr := newTestManager(t)
	// Distinct session namespaces would need distinct leader IDs, but
	// the claim CAS already guarantees disjoint leaders per processor.
	a := NewProcessor(st, mgr, ProcessorConfig{Workers: 2, Session: session.Config{Seed: 42}})
	b := NewProcessor(st, mgr, ProcessorConfig{Workers: 2, Session: session.Config{Seed: 42}})
	errs := make(chan error, 2)
	go func() { errs <- a.Drain(context.Background()) }()
	go func() { errs <- b.Drain(context.Background()) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	ss := st.Stats()
	if ss.QueueDepth != 0 || ss.Claimed != 0 || ss.Investigating != 0 {
		t.Errorf("concurrent drains left open work: %+v", ss)
	}
	if int(ss.Resolved+ss.Escalated) != len(batch) {
		t.Errorf("terminal = %d, want %d", ss.Resolved+ss.Escalated, len(batch))
	}
	// Every incident was investigated by exactly one group/leader.
	for _, sum := range st.List("") {
		inc, _ := st.Get(sum.ID)
		if inc.Leader == "" {
			t.Errorf("%s never grouped", inc.ID)
		}
	}
}
