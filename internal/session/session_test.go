package session

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/stream"
)

// vulnQuestion is a question the trained simulated agent answers with
// high confidence, so tests converge quickly and deterministically.
const vulnQuestion = "Which is more vulnerable to solar activity? The fiber optic cable that connects Brazil to Europe or the one that connects the US to Europe?"

func newTestManager(t testing.TB, cfg ManagerConfig) *Manager {
	t.Helper()
	m := NewManager(cfg)
	t.Cleanup(m.Shutdown)
	return m
}

func TestFactoryDefaultsToBob(t *testing.T) {
	a, eng, err := NewAgent(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Role.Name != agent.BobRole().Name {
		t.Errorf("zero role built %q, want Bob", a.Role.Name)
	}
	if eng == nil || a.Web == nil {
		t.Fatal("factory returned nil web")
	}
	if a.Memory == nil {
		t.Fatal("factory returned incomplete agent")
	}
}

func TestForkIsolatesMemory(t *testing.T) {
	proto, _, err := NewAgent(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := proto.Memory.Add("the original fact", "https://src", "topic"); !ok {
		t.Fatal("seed fact not added")
	}
	fork := Fork(proto, 42, Config{}.WebOptions)
	if fork.Memory.Len() != proto.Memory.Len() {
		t.Fatalf("fork memory %d != proto %d", fork.Memory.Len(), proto.Memory.Len())
	}
	fork.Memory.Add("a fork-only fact", "https://fork", "topic")
	if proto.Memory.Len() != 1 {
		t.Error("fork write leaked into prototype memory")
	}
}

func TestManagerCreateGetList(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	a, err := m.Create("alice", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "alice" {
		t.Errorf("id = %q", a.ID())
	}
	gen, err := m.Create("", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if gen.ID() != "s0001" {
		t.Errorf("generated id = %q, want s0001", gen.ID())
	}
	if _, err := m.Create("alice", Config{}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create err = %v, want ErrExists", err)
	}
	if _, err := m.Create("no/slashes", Config{}); err == nil {
		t.Error("invalid id accepted")
	}
	got, err := m.Get("alice")
	if err != nil || got != a {
		t.Errorf("Get(alice) = %v, %v", got, err)
	}
	if _, err := m.Get("nobody"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(nobody) err = %v, want ErrNotFound", err)
	}
	list := m.List()
	if len(list) != 2 || list[0].ID != "alice" || list[1].ID != "s0001" {
		t.Errorf("List = %+v", list)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, ManagerConfig{})
	s, err := m.Create("bob", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Trained || st.MemoryItems != 0 {
		t.Errorf("fresh status = %+v", st)
	}
	rep, err := s.Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Goals) == 0 || rep.MemoryItems == 0 {
		t.Fatalf("train report %+v", rep)
	}
	if st := s.Status(); !st.Trained || st.MemoryItems == 0 || st.TraceEvents == 0 {
		t.Errorf("post-train status = %+v", st)
	}
	ans, err := s.Ask(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text == "" {
		t.Error("empty answer")
	}
	inv, err := s.Investigate(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Final.Confidence < 7 {
		t.Errorf("investigation confidence %d", inv.Final.Confidence)
	}
	if _, err := s.Plan(ctx, "solar storm response"); err != nil {
		t.Fatal(err)
	}
	qs, err := s.GenerateQuestions(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 {
		t.Error("no questions generated")
	}
	repReport, _, err := s.Report(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if repReport.Question != vulnQuestion {
		t.Errorf("report question = %q", repReport.Question)
	}
	if repReport.TraceEvents != s.LastEventID() {
		t.Errorf("report counts %d trace events, want LastEventID %d", repReport.TraceEvents, s.LastEventID())
	}
	if len(s.Sources()) == 0 {
		t.Error("no sources after training")
	}
	if evs, _, _, err := s.Events(0); err != nil || len(evs) == 0 || s.Status().TraceEvents != s.LastEventID() {
		t.Errorf("event log holds %d events, status counts %d, LastEventID %d", len(evs), s.Status().TraceEvents, s.LastEventID())
	}
}

func TestSessionSaveAndLoadMemory(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, ManagerConfig{})
	s, _ := m.Create("bob", Config{Seed: 42})
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "knowledge.json")
	if err := s.SaveMemory(ctx, path); err != nil {
		t.Fatal(err)
	}
	other, _ := m.Create("carol", Config{Seed: 42})
	if err := other.LoadMemory(ctx, path); err != nil {
		t.Fatal(err)
	}
	if other.MemoryLen() != s.MemoryLen() {
		t.Errorf("reloaded %d items, want %d", other.MemoryLen(), s.MemoryLen())
	}
}

// TestSnapshotRestoreRoundTrip: a snapshot restores the memory, the
// trained state and the event log, in a fresh manager and after an
// eviction alike, and event IDs continue where the log left off.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: dir})
	s, err := m.Create("ops", Config{Seed: 42})
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
	path, err := m.Snapshot(ctx, "ops")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	log, _, _, err := s.Events(0)
	if err != nil || len(log) == 0 {
		t.Fatal("no events before the snapshot")
	}
	// checkResumed: restored holds exactly the log from before the
	// snapshot, and its next ask is recorded right after it.
	checkResumed := func(how string, restored *Session) {
		t.Helper()
		if got, _, _, err := restored.Events(0); err != nil || !reflect.DeepEqual(got, log) {
			t.Errorf("%s: restored log differs (%v):\nbefore %+v\nafter  %+v", how, err, log, got)
		}
		last := log[len(log)-1].ID
		if _, err := restored.Ask(ctx, "Why are undersea cables vulnerable?"); err != nil {
			t.Fatal(err)
		}
		next, _, _, err := restored.Events(last)
		if err != nil || len(next) == 0 || next[0].Type != stream.EventOp || next[0].ID != last+1 {
			t.Errorf("%s: next ask recorded as %+v (%v), want an op event with ID %d", how, next, err, last+1)
		}
	}

	// A fresh manager — a new process, conceptually — restores the
	// session transparently on Get.
	m2 := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	restored, err := m2.Get("ops")
	if err != nil {
		t.Fatal(err)
	}
	if restored.MemoryLen() != s.MemoryLen() {
		t.Errorf("restored memory %d, want %d", restored.MemoryLen(), s.MemoryLen())
	}
	if st := restored.Status(); !st.Trained {
		t.Error("restored session lost trained state")
	}
	checkResumed("fresh manager", restored)
	after, err := restored.Ask(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("restored answer differs:\nbefore %+v\nafter  %+v", before, after)
	}

	// Evict the session from the original manager (it holds one) and
	// restore it there.
	if _, err := m.Create("other", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("creating a second session evicted nothing")
	}
	evicted, err := m.Get("ops")
	if err != nil {
		t.Fatal(err)
	}
	checkResumed("after eviction", evicted)
}

func TestSnapshotRequiresDir(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	if _, err := m.Snapshot(context.Background(), "x"); err == nil {
		t.Error("snapshot without dir succeeded")
	}
	m2 := newTestManager(t, ManagerConfig{SnapshotDir: t.TempDir()})
	if _, err := m2.Snapshot(context.Background(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestCloseDiscard(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, _ := m.Create("gone", Config{Seed: 42})
	if _, err := m.Snapshot(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(ctx, "gone", true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("gone"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after discard = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone.json")); !os.IsNotExist(err) {
		t.Error("discard left the snapshot file behind")
	}
	// Operations on the retained handle fail closed.
	if _, err := s.Ask(ctx, "anything"); !errors.Is(err, ErrClosed) {
		t.Errorf("Ask on closed session = %v, want ErrClosed", err)
	}
	if err := m.Close(ctx, "gone", true); !errors.Is(err, ErrNotFound) {
		t.Errorf("double close = %v, want ErrNotFound", err)
	}
}

func TestCloseKeepPersists(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, _ := m.Create("kept", Config{Seed: 42})
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	want := s.MemoryLen()
	if err := m.Close(ctx, "kept", false); err != nil {
		t.Fatal(err)
	}
	restored, err := m.Get("kept")
	if err != nil {
		t.Fatal(err)
	}
	if restored.MemoryLen() != want {
		t.Errorf("restored %d items, want %d", restored.MemoryLen(), want)
	}
}

func TestLRUEvictionAtCapacity(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Capacity: 2, SnapshotDir: dir})
	a, _ := m.Create("a", Config{Seed: 42})
	if _, err := m.Create("b", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	// Touch a: b becomes the least recently used.
	if _, err := a.Ask(ctx, "warmup"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("c", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", m.Len())
	}
	ids := []string{}
	for _, st := range m.List() {
		ids = append(ids, st.ID)
	}
	if fmt.Sprint(ids) != "[a c]" {
		t.Errorf("live sessions %v, want [a c]", ids)
	}
	// The evicted session was snapshotted and comes back on demand.
	if _, err := m.Get("b"); err != nil {
		t.Errorf("evicted session not restorable: %v", err)
	}
}

func TestEvictionSkipsBusySessions(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Capacity: 1})
	busy, _ := m.Create("busy", Config{Seed: 42})
	if err := busy.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer busy.release()
	if _, err := m.Create("next", Config{Seed: 42}); !errors.Is(err, ErrBusy) {
		t.Errorf("create at capacity with busy session = %v, want ErrBusy", err)
	}
}

func TestEvictionWithoutSnapshotDirDropsState(t *testing.T) {
	m := newTestManager(t, ManagerConfig{Capacity: 1})
	if _, err := m.Create("first", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("second", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("first"); !errors.Is(err, ErrNotFound) {
		t.Errorf("evicted session without snapshots = %v, want ErrNotFound", err)
	}
}

func TestAcquireHonorsContext(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	s, _ := m.Create("slow", Config{Seed: 42})
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := s.Ask(ctx, "anything"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued op err = %v, want DeadlineExceeded", err)
	}
	if st := s.Status(); !st.Busy {
		t.Error("status should report busy while the op lock is held")
	}
}

func TestConcurrentAsksAreSerializedAndIdentical(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, ManagerConfig{})
	s, _ := m.Create("shared", Config{Seed: 42})
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	const n = 8
	answers := make([]agent.Answer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = s.Ask(ctx, vulnQuestion)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("ask %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(answers[i], answers[0]) {
			t.Errorf("ask %d diverged: %+v vs %+v", i, answers[i], answers[0])
		}
	}
}

func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"ok":          true,
		"A-1_b":       true,
		"":            false,
		"has space":   false,
		"dot.dot":     false,
		"path/../sep": false,
	} {
		if got := validID(id); got != want {
			t.Errorf("validID(%q) = %v, want %v", id, got, want)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	if validID(string(long)) {
		t.Error("65-char id accepted")
	}
}
