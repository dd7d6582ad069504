package session

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCreateGeneratedIDSkipsTaken is the regression test for the
// generated-ID collision: creating "s0001" explicitly and then creating
// with an empty ID must not return ErrExists — the sequence skips taken
// IDs until it finds a free one.
func TestCreateGeneratedIDSkipsTaken(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	if _, err := m.Create("s0001", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("s0003", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	gen, err := m.Create("", Config{Seed: 42})
	if err != nil {
		t.Fatalf("generated create collided: %v", err)
	}
	if gen.ID() != "s0002" {
		t.Errorf("generated id = %q, want s0002", gen.ID())
	}
	// The next generated ID also hops over the second taken name.
	gen2, err := m.Create("", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if gen2.ID() != "s0004" {
		t.Errorf("second generated id = %q, want s0004", gen2.ID())
	}
}

// TestSnapshotEvictedDoesNotRestore: snapshotting a session that is not
// live but already persisted must return the existing snapshot path
// without rebuilding an agent stack (and possibly evicting an innocent
// session) just to re-write the same bytes.
func TestSnapshotEvictedDoesNotRestore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: dir})
	if _, err := m.Create("a", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b", Config{Seed: 42}); err != nil {
		t.Fatal(err) // evicts a
	}
	path, err := m.Snapshot(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "a.json") {
		t.Errorf("path = %q", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	if st := m.Stats(); st.Restores != 0 {
		t.Errorf("Snapshot of an evicted session performed %d restores, want 0", st.Restores)
	}
	list := m.List()
	if len(list) != 1 || list[0].ID != "b" {
		t.Errorf("live sessions %+v, want exactly [b]", list)
	}
}

// TestConcurrentRestoreSingleflight: two goroutines Get the same evicted
// ID; exactly one disk read and one reconstruction must happen, both
// callers must share the same session, and its answers must match the
// pre-snapshot ones byte for byte.
func TestConcurrentRestoreSingleflight(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, err := m.Create("x", Config{Seed: 42})
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
	if err := m.Close(ctx, "x", false); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	entered := make(chan struct{})
	release := make(chan struct{})
	m2.testRestoreStall = func(id string) {
		close(entered)
		<-release
	}
	var (
		got  [2]*Session
		errs [2]error
		wg   sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		got[0], errs[0] = m2.Get("x")
	}()
	<-entered // first Get is mid-restore with its placeholder published
	go func() {
		defer wg.Done()
		got[1], errs[1] = m2.Get("x")
	}()
	time.Sleep(20 * time.Millisecond) // let the second Get reach the wait
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if got[0] != got[1] {
		t.Error("concurrent Gets returned different sessions")
	}
	st := m2.Stats()
	if st.DiskRestores != 1 || st.Restores != 1 {
		t.Errorf("restores = %d (disk %d), want exactly 1", st.Restores, st.DiskRestores)
	}
	after, err := got[0].Ask(ctx, vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("restored answer differs:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestUnrelatedGetNotBlockedBySlowRestore parks one session's restore
// and proves that Gets and Creates of other sessions complete while it
// is stuck: restore work runs off the table lock.
func TestUnrelatedGetNotBlockedBySlowRestore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	if _, err := m.Create("slow", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(ctx, "slow", false); err != nil {
		t.Fatal(err)
	}
	others := []string{"o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8"}
	for _, id := range others {
		if _, err := m.Create(id, Config{Seed: 42}); err != nil {
			t.Fatal(err)
		}
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	m.testRestoreStall = func(id string) {
		if id == "slow" {
			close(entered)
			<-release
		}
	}
	slowDone := make(chan error, 1)
	go func() {
		_, err := m.Get("slow")
		slowDone <- err
	}()
	<-entered // restore of "slow" is parked off-lock

	// Every unrelated operation must complete while "slow" is stuck.
	done := make(chan error, 1)
	go func() {
		for _, id := range others {
			if _, err := m.Get(id); err != nil {
				done <- err
				return
			}
		}
		_, err := m.Create("fresh", Config{Seed: 42})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unrelated op failed during parked restore: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unrelated Get/Create blocked behind a parked restore")
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("parked restore failed: %v", err)
	}
}

// TestCapacityIsGlobalUnderConcurrentCreates asserts that eviction picks
// the global LRU among idle sessions, that concurrent creates never push
// the live count past capacity, and that with no session busy every
// create past capacity evicts exactly one session.
func TestCapacityIsGlobalUnderConcurrentCreates(t *testing.T) {
	const capacity = 4
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Capacity: capacity, SnapshotDir: dir})

	// Deterministic part: global LRU order decides the victim.
	first := []string{"a", "b", "c", "d"}
	for _, id := range first {
		if _, err := m.Create(id, Config{Seed: 42}); err != nil {
			t.Fatal(err)
		}
	}
	a, err := m.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.release() // bump a's LRU clock: b is now the global LRU
	if _, err := m.Create("e", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for _, st := range m.List() {
		ids = append(ids, st.ID)
	}
	if fmt.Sprint(ids) != "[a c d e]" {
		t.Errorf("live after create past capacity = %v, want [a c d e]", ids)
	}

	// Concurrent part: hammer creates from several goroutines; the live
	// count must never exceed the capacity.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		violated error
		created  = len(first) + 1
	)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 9; i++ {
				_, err := m.Create(fmt.Sprintf("c%d-%02d", g, i), Config{Seed: 42})
				n := m.Len()
				mu.Lock()
				switch {
				case err == nil:
					created++
				case !errors.Is(err, ErrBusy):
					violated = err
				}
				if n > capacity {
					violated = fmt.Errorf("live sessions = %d, capacity %d", n, capacity)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if violated != nil {
		t.Fatal(violated)
	}
	// No session was busy, so each create past capacity evicted exactly
	// one session: none more, none fewer.
	if got, want := m.Stats().Evictions, int64(created-capacity); got != want {
		t.Errorf("evictions = %d after %d creates at capacity %d, want %d", got, created, capacity, want)
	}
	if n := m.Len(); n != capacity {
		t.Errorf("final live sessions = %d, want %d", n, capacity)
	}
	// Every evicted session stayed restorable: flush the writer and
	// check each non-live ID has its snapshot on disk.
	m.Flush()
	live := map[string]bool{}
	for _, st := range m.List() {
		live[st.ID] = true
	}
	for _, id := range append(first, "e") {
		if live[id] {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, id+".json")); err != nil {
			t.Errorf("evicted %s has no snapshot: %v", id, err)
		}
	}
}

// TestFlushBarrierLandsEvictionWrites: eviction queues its snapshot
// write and may return before it hits disk; Flush is the deterministic
// barrier after which the file must exist.
func TestFlushBarrierLandsEvictionWrites(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: dir})
	if _, err := m.Create("first", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("second", Config{Seed: 42}); err != nil {
		t.Fatal(err) // evicts first, write queued
	}
	m.Flush()
	if _, err := os.Stat(filepath.Join(dir, "first.json")); err != nil {
		t.Fatalf("after Flush, eviction snapshot missing: %v", err)
	}
	st := m.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.AsyncWrites+st.SyncWriteFalls != 1 {
		t.Errorf("writes = %d async + %d sync, want 1 total", st.AsyncWrites, st.SyncWriteFalls)
	}
}

// TestRestoreAfterEvictionReadsLatestSnapshot: a Get right after an
// eviction lands the queued write before it reads the file, so the
// restore comes from disk and carries the evicted state — never the
// older snapshot the file held before the eviction.
func TestRestoreAfterEvictionReadsLatestSnapshot(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: dir})
	s, err := m.Create("first", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(ctx, "first"); err != nil {
		t.Fatal(err)
	}
	oldItems, oldLast := s.MemoryLen(), s.LastEventID()
	if _, err := s.SelfLearn(ctx, []string{"submarine cable vulnerabilities"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask(ctx, vulnQuestion); err != nil {
		t.Fatal(err)
	}
	wantItems, wantLast := s.MemoryLen(), s.LastEventID()
	if wantItems == oldItems || wantLast == oldLast {
		t.Fatalf("state did not move past the snapshot: items %d -> %d, last event %d -> %d", oldItems, wantItems, oldLast, wantLast)
	}
	if _, err := m.Create("second", Config{Seed: 42}); err != nil {
		t.Fatal(err) // evicts first; its write is queued
	}
	restored, err := m.Get("first") // evicts second
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.MemoryLen(); got != wantItems {
		t.Errorf("restored memory %d items, want the evicted %d (older file: %d)", got, wantItems, oldItems)
	}
	if got := restored.LastEventID(); got != wantLast {
		t.Errorf("restored LastEventID %d, want the evicted %d (older file: %d)", got, wantLast, oldLast)
	}
	if st := restored.Status(); !st.Trained {
		t.Error("restored session lost trained state")
	}
	if st := m.Stats(); st.Restores != 1 || st.DiskRestores != 1 {
		t.Errorf("restores = %d, disk restores = %d, want 1 and 1", st.Restores, st.DiskRestores)
	}
}

// TestRestoreReserveFailureKeepsSnapshot: a restore reads the snapshot
// file before it reserves capacity, so a reserve failure — ErrBusy,
// every live session mid-operation — must leave that file in place and
// the session restorable on the next Get with the same state.
func TestRestoreReserveFailureKeepsSnapshot(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: dir})
	a, err := m.Create("a", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(ctx); err != nil {
		t.Fatal(err)
	}
	wantItems := a.MemoryLen()
	b, err := m.Create("b", Config{Seed: 42})
	if err != nil {
		t.Fatal(err) // evicts a; its snapshot write is queued
	}

	// Park b mid-operation: restoring a now needs an eviction, but the
	// only candidate is busy, so reserve fails with ErrBusy.
	if err := b.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("a"); !errors.Is(err, ErrBusy) {
		b.release()
		t.Fatalf("Get(a) with all sessions busy = %v, want ErrBusy", err)
	}
	b.release()

	// The failed restore must have left a restorable from its file on
	// disk, with the same trained state and memory.
	restored, err := m.Get("a")
	if err != nil {
		t.Fatalf("session a lost after failed restore: %v", err)
	}
	if restored.MemoryLen() != wantItems {
		t.Errorf("restored memory %d items, want %d", restored.MemoryLen(), wantItems)
	}
	if st := restored.Status(); !st.Trained {
		t.Error("restored session lost trained state")
	}
}

// TestEvictionWriteFailureLosesNothing: while an eviction write keeps
// failing, the snapshot stays pending, Flush counts each failed attempt,
// and a restore of the ID returns the write error instead of serving
// the pending copy or reporting the session missing. Once the
// directory is writable again, the next restore lands the write and
// returns the state the session had when it was evicted.
func TestEvictionWriteFailureLosesNothing(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "snaps")
	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: dir})
	a, err := m.Create("a", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(ctx); err != nil {
		t.Fatal(err)
	}
	// One successful snapshot first: the manager creates its directory
	// once and keeps that result.
	if _, err := m.Snapshot(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ask(ctx, vulnQuestion); err != nil {
		t.Fatal(err)
	}
	wantItems, wantLast := a.MemoryLen(), a.LastEventID()

	// Move the directory aside and put a regular file at its path, so
	// every snapshot write fails.
	aside := dir + ".aside"
	if err := os.Rename(dir, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b", Config{Seed: 42}); err != nil {
		t.Fatal(err) // evicts a; its write fails
	}
	m.Flush()
	if st := m.Stats(); st.WriteErrors < 1 {
		t.Fatalf("write errors = %d after a failed eviction write, want >= 1", st.WriteErrors)
	}
	_, err = m.Get("a")
	if err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(a) while its write fails = %v, want the write error", err)
	}
	if !strings.Contains(err.Error(), "write snapshot") {
		t.Errorf("Get(a) error = %v, want the snapshot write error", err)
	}

	// Restore the directory: the next Get lands the write and restores
	// the evicted state.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, dir); err != nil {
		t.Fatal(err)
	}
	restored, err := m.Get("a")
	if err != nil {
		t.Fatalf("Get(a) after the directory came back: %v", err)
	}
	if got := restored.MemoryLen(); got != wantItems {
		t.Errorf("restored memory %d items, want %d", got, wantItems)
	}
	if got := restored.LastEventID(); got != wantLast {
		t.Errorf("restored LastEventID %d, want %d", got, wantLast)
	}
}

// TestCloseOfSessionClosedUnderLookup: an eviction or another Close can
// close a session between the table lookup of Snapshot or Close and its
// op lock. Both must then take the not-live path: Snapshot returns the
// file's path, and a discarding Close removes the file and succeeds.
func TestCloseOfSessionClosedUnderLookup(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, err := m.Create("a", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Snapshot(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	s.markClosed() // closed, while its table entry stays
	path, err := m.Snapshot(ctx, "a")
	if err != nil || path != want {
		t.Errorf("Snapshot of a session closed under lookup = %q, %v; want %q", path, err, want)
	}
	if err := m.Close(ctx, "a", true); err != nil {
		t.Errorf("Close(discard) of a session closed under lookup = %v, want nil", err)
	}
	if _, err := os.Stat(want); !os.IsNotExist(err) {
		t.Errorf("snapshot file after Close(discard): %v, want it removed", err)
	}
}

// TestEvictionAfterShutdownWritesInline: Shutdown closes the writer
// pool, so an eviction after it must not strand its snapshot in the
// pending set — it is written out inline before the eviction returns.
func TestEvictionAfterShutdownWritesInline(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: dir})
	if _, err := m.Create("early", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	if _, err := m.Create("late", Config{Seed: 42}); err != nil {
		t.Fatal(err) // evicts early: the pool is closed, write must be inline
	}
	if _, err := os.Stat(filepath.Join(dir, "early.json")); err != nil {
		t.Fatalf("post-Shutdown eviction snapshot not on disk: %v", err)
	}
}

// TestCloseFreesItsSlotOnce: Close unpublishes its session and frees
// its slot before it releases the op lock. An eviction that runs right
// after that release can therefore neither take the closed session nor
// free its slot a second time, and the manager never holds more live
// sessions than its capacity.
func TestCloseFreesItsSlotOnce(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, ManagerConfig{Capacity: 2})
	for _, id := range []string{"a", "b"} {
		if _, err := m.Create(id, Config{Seed: 42}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := m.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	defer b.release() // b stays busy: not evictable
	m.testCloseStall = func(string) {
		if _, err := m.Create("c", Config{Seed: 42}); err != nil {
			t.Errorf("Create(c) while a closes: %v", err)
		}
	}
	if err := m.Close(ctx, "a", true); err != nil {
		t.Fatal(err)
	}
	m.testCloseStall = nil
	if _, err := m.Create("d", Config{Seed: 42}); err != nil {
		t.Fatal(err) // evicts c, the one idle session
	}
	ids := []string{}
	for _, st := range m.List() {
		ids = append(ids, st.ID)
	}
	if fmt.Sprint(ids) != "[b d]" {
		t.Errorf("live sessions = %v, want [b d]", ids)
	}
	if n, live := m.Len(), m.live.Load(); n != 2 || live != 2 {
		t.Errorf("Len() = %d, live = %d; want 2 and 2 at capacity 2", n, live)
	}
	if ev := m.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

// TestCreateRefusesPersistedID: with a snapshot directory, an ID whose
// session was evicted is still taken, whether its write is pending or
// on disk. Create answers ErrExists instead of shadowing it with a
// fresh session, and the evicted state stays restorable.
func TestCreateRefusesPersistedID(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: t.TempDir()})
	a, err := m.Create("a", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Train(ctx); err != nil {
		t.Fatal(err)
	}
	wantItems, wantLast := a.MemoryLen(), a.LastEventID()
	if _, err := m.Create("b", Config{Seed: 42}); err != nil {
		t.Fatal(err) // evicts a; its write is pending or landed
	}
	if _, err := m.Create("a", Config{Seed: 42}); !errors.Is(err, ErrExists) {
		t.Fatalf("Create(a) right after its eviction = %v, want ErrExists", err)
	}
	m.Flush()
	if _, err := m.Create("a", Config{Seed: 42}); !errors.Is(err, ErrExists) {
		t.Fatalf("Create(a) with its snapshot on disk = %v, want ErrExists", err)
	}
	got, err := m.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if st := got.Status(); !st.Trained || got.MemoryLen() != wantItems || got.LastEventID() != wantLast {
		t.Errorf("Get(a) = trained %v, %d items, last event %d; want the evicted true, %d, %d",
			st.Trained, got.MemoryLen(), got.LastEventID(), wantItems, wantLast)
	}
	// A discarding Close frees the ID for a new session.
	if err := m.Close(ctx, "a", true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("a", Config{Seed: 42}); err != nil {
		t.Errorf("Create(a) after Close(discard) = %v, want nil", err)
	}
}

// TestCreateGeneratedIDSkipsPersisted: a manager restarted on a snapshot
// directory does not hand out a generated ID whose snapshot file an
// earlier process left there.
func TestCreateGeneratedIDSkipsPersisted(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	first := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	s, err := first.Create("", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != "s0001" {
		t.Fatalf("first generated id = %q, want s0001", s.ID())
	}
	if err := first.Close(ctx, "s0001", false); err != nil {
		t.Fatal(err) // persists s0001.json
	}

	restarted := newTestManager(t, ManagerConfig{SnapshotDir: dir})
	gen, err := restarted.Create("", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if gen.ID() != "s0002" {
		t.Errorf("generated id after restart = %q, want s0002 (s0001 is on disk)", gen.ID())
	}
	if _, err := restarted.Get("s0001"); err != nil {
		t.Errorf("Get(s0001) after the skip = %v, want the persisted session", err)
	}
	if n := restarted.Len(); n != 2 {
		t.Errorf("Len() = %d, want 2", n)
	}
}

// TestGetRetriesAfterWithdrawnCreate: a Get that waits on a Create's
// placeholder, which the Create then withdraws because the ID is
// persisted, looks again and restores the persisted session instead of
// failing with the Create's ErrExists.
func TestGetRetriesAfterWithdrawnCreate(t *testing.T) {
	ctx := context.Background()
	m := newTestManager(t, ManagerConfig{SnapshotDir: t.TempDir()})
	if _, err := m.Create("a", Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(ctx, "a", false); err != nil {
		t.Fatal(err) // persists a.json
	}
	// A Create of "a" has published its placeholder and not yet checked
	// the disk.
	e := &entry{ready: make(chan struct{})}
	m.mu.Lock()
	m.sessions["a"] = e
	m.mu.Unlock()
	var (
		got  *Session
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		got, err = m.Get("a")
	}()
	time.Sleep(20 * time.Millisecond) // let the Get reach the wait
	m.abort("a", e, fmt.Errorf("%w: a", ErrExists))
	<-done
	if err != nil || got == nil || got.ID() != "a" {
		t.Fatalf("Get(a) after the Create withdrew = %v, %v; want the persisted session", got, err)
	}
	if st := m.Stats(); st.DiskRestores != 1 {
		t.Errorf("disk restores = %d, want 1", st.DiskRestores)
	}
}
