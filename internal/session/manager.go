package session

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evalcache"
	"repro/internal/llm"
	"repro/internal/llm/backend"
	"repro/internal/memory"
	"repro/internal/parallel"
	"repro/internal/retrieval"
	"repro/internal/stream"
)

// ManagerConfig configures a Manager.
type ManagerConfig struct {
	// Capacity bounds live sessions across all shards (default 64).
	// Creating or restoring past it evicts the least-recently-used idle
	// session — snapshotted to disk first when SnapshotDir is set, so it
	// can be restored transparently on the next Get.
	Capacity int
	// Shards is the number of independent lock domains session IDs are
	// hashed over (FNV-1a). More shards means create/get/evict on
	// unrelated sessions contend less. Default min(GOMAXPROCS, 16).
	Shards int
	// SnapshotDir, when set, enables snapshot/restore: Snapshot writes
	// <dir>/<id>.json, evictions persist state there, and Get lazily
	// restores evicted or previously snapshotted sessions from it.
	SnapshotDir string
	// Defaults seeds the per-session Config where a creation request
	// leaves fields unset (used by the HTTP layer).
	Defaults Config
	// RequestTimeout bounds each HTTP request served by Handler
	// (default 30s).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing agent operations
	// (train/ask/learn/plan/report) across all sessions on this node —
	// the per-node admission gate the gateway tier spreads load
	// against. Excess requests queue honoring their context (so they
	// time out with 504 rather than melt the node); 0 means unlimited.
	MaxInFlight int
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 16 {
			c.Shards = 16
		}
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// entry is one slot in a shard's session table. A just-published slot is
// pending (s == nil, ready open) while its owner builds or restores the
// agent stack outside the shard lock; concurrent lookups of the same ID
// wait on ready instead of repeating the work (singleflight). The owner
// either commits a live session or aborts with an error that every
// waiter shares.
type entry struct {
	s     *Session
	err   error
	ready chan struct{}
}

// shard is one lock domain: a mutex and the session table it guards.
// Nothing that blocks — disk I/O, JSON codec work, agent construction —
// ever runs while a shard mutex is held, with one deliberate exception:
// evictOne deep-copies the victim's state (snapshotLocked, no codec or
// I/O) under the lock so the session is staged as pending before it is
// unpublished and can never be observed as missing.
type shard struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// pendingSnap is an eviction snapshot that has not reached disk yet. It
// lives in Manager.pending so the session stays restorable (from memory,
// with no disk read) during the write-behind window, and so a newer
// eviction of the same ID supersedes an older queued write. queued is
// set while a write task for this snapshot is queued or in flight so
// each sweep tick does not hand the pool a duplicate; it is cleared
// when the task completes, which re-arms the retry after a write error.
type pendingSnap struct {
	snap   Snapshot
	queued atomic.Bool
}

// flushSettle is the write-behind window: an eviction snapshot sits in
// memory this long before the sweeper hands it to the writer pool. A
// session restored within the window cancels its write entirely — the
// dominant case under hot churn, where a working set cycles through a
// too-small capacity. Explicit Snapshot and Close writes stay
// synchronous; at most this window of eviction state is lost if the
// process dies.
const flushSettle = 5 * time.Millisecond

// maxDirty bounds the write-behind set. An eviction that would grow it
// past this count flushes its own snapshot immediately instead of
// waiting for the sweeper, so RAM held by pending snapshots stays
// bounded even under one-way eviction storms that never restore.
const maxDirty = 256

// ManagerStats counts runtime events for capacity planning — the
// in-process aggregate StatsBlocks reshapes into the namespaced GET
// /v1/stats body. Backend aggregates the process-wide LLM backend
// counters (remote requests, retries, breaker opens, cache hits,
// fallback completions) next to the session-lifecycle counts.
type ManagerStats struct {
	Live           int           `json:"live"`             // committed live sessions
	Restores       int64         `json:"restores"`         // sessions rebuilt from a snapshot (memory or disk)
	DiskRestores   int64         `json:"disk_restores"`    // restores that had to read + decode a snapshot file
	Evictions      int64         `json:"evictions"`        // sessions evicted to make room
	AsyncWrites    int64         `json:"async_writes"`     // eviction snapshots queued to the writer pool
	SyncWriteFalls int64         `json:"sync_write_falls"` // eviction snapshots written inline (pool saturated)
	WriteErrors    int64         `json:"write_errors"`     // background snapshot writes that failed
	InFlight       int           `json:"inflight_ops"`     // agent operations currently holding an admission slot
	MaxInFlight    int           `json:"max_inflight"`     // admission gate size (0 = unlimited)
	Backend        backend.Stats `json:"backend"`          // process-wide LLM backend counters

	// Ask-hot-path cache counters, process-wide like Backend: the sim
	// evidence LRU and the memory knowledge-text (retrieval) cache.
	EvidenceCache  llm.CacheStats    `json:"evidence_cache"`
	KnowledgeCache memory.CacheStats `json:"knowledge_cache"`

	// MemorySegments is the process-wide interned memory-segment table:
	// how many distinct trained-knowledge segments are resident, how many
	// items and estimated bytes they hold (counted once each, however
	// many sessions share them), and total attached-store refcounts.
	MemorySegments evalcache.SegmentCacheStats `json:"memory_segments"`

	// Retrieval is the process-wide parallel retrieval pipeline:
	// search/fetch totals and live in-flight gauges, plus the
	// cross-query URL dedup savings.
	Retrieval retrieval.Stats `json:"retrieval"`
}

// Manager owns named, long-lived agent sessions: the runtime every
// front-end (CLI, repl, HTTP daemon, eval harness) builds on. Session
// IDs are hashed over independent shards so hot multi-tenant traffic
// does not serialize on one lock, capacity is accounted globally, and
// all blocking work (snapshot I/O, agent construction) runs off the
// shard locks.
type Manager struct {
	cfg    ManagerConfig
	shards []*shard

	// gate is the admission semaphore when MaxInFlight > 0 (nil
	// otherwise): one slot per concurrently executing agent operation.
	gate chan struct{}

	seq  atomic.Int64 // generated-ID sequence
	live atomic.Int64 // committed sessions + in-flight reservations
	use  atomic.Int64 // global LRU clock
	now  func() time.Time

	// writer drains eviction snapshots in the background; flushMu
	// serializes disk writes per ID stripe so a superseded write can
	// never land after a fresher one. pending is the write-behind set,
	// swept into the pool every flushSettle; dirty counts its entries
	// and sweepStop ends the sweeper goroutine.
	writer    *parallel.Pool
	flushMu   []sync.Mutex
	pending   sync.Map // id -> *pendingSnap
	dirty     atomic.Int64
	sweepStop chan struct{}
	sweepDone chan struct{}
	stopped   atomic.Bool // Shutdown ran: no sweeper, evictions flush inline
	stopOnce  sync.Once
	mkdirOnce sync.Once
	mkdirErr  error

	// segDone records segment fingerprints whose item file is known to
	// be on disk, so each shared segment is written once per process —
	// not once per session snapshot that references it.
	segDone sync.Map // fingerprint -> struct{}{}

	stats struct {
		restores, diskRestores, evictions   atomic.Int64
		asyncWrites, syncFalls, writeErrors atomic.Int64
	}

	// testRestoreStall, when set by tests, runs mid-restore (off every
	// lock) so tests can park one session's restore and prove unrelated
	// sessions stay reachable.
	testRestoreStall func(id string)
}

// NewManager returns an empty manager.
func NewManager(cfg ManagerConfig) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		flushMu: make([]sync.Mutex, cfg.Shards),
		now:     time.Now,
	}
	for i := range m.shards {
		m.shards[i] = &shard{entries: map[string]*entry{}}
	}
	if cfg.MaxInFlight > 0 {
		m.gate = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.SnapshotDir != "" {
		m.writer = parallel.NewPool(2, 4*cfg.Shards)
		m.sweepStop = make(chan struct{})
		m.sweepDone = make(chan struct{})
		go m.sweeper()
	}
	return m
}

// sweeper periodically drains the write-behind set into the writer
// pool. It exits on Shutdown after one final sweep.
func (m *Manager) sweeper() {
	defer close(m.sweepDone)
	t := time.NewTicker(flushSettle)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.sweep()
		case <-m.sweepStop:
			m.sweep()
			return
		}
	}
}

// sweep queues every pending snapshot for writing. Snapshots whose
// write is already queued or in flight are skipped (queueWrite's CAS),
// so a slow disk cannot fill the pool queue with duplicates of the
// same IDs and push the sweeper into inline fallback writes.
func (m *Manager) sweep() {
	m.pending.Range(func(k, v any) bool {
		m.queueWrite(k.(string), v.(*pendingSnap))
		return true
	})
}

// Config returns the manager's effective configuration.
func (m *Manager) Config() ManagerConfig { return m.cfg }

// Admit claims one slot of the per-node admission gate, blocking until
// a slot frees or ctx is done. The returned release function must be
// called exactly once. With no MaxInFlight configured it is a no-op —
// the common single-node case pays one nil check.
func (m *Manager) Admit(ctx context.Context) (release func(), err error) {
	if m.gate == nil {
		return func() {}, nil
	}
	select {
	case m.gate <- struct{}{}:
		return func() { <-m.gate }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Drain persists the session's final state and closes it, leaving the
// snapshot restorable by any node sharing the snapshot directory — the
// migration handoff the gateway invokes when a session's ring slot
// moves to another backend. It is Close without discard, plus the
// guarantee that a node with no snapshot directory refuses instead of
// silently dropping the only copy of the state.
func (m *Manager) Drain(ctx context.Context, id string) error {
	if m.cfg.SnapshotDir == "" {
		return fmt.Errorf("%w: cannot drain %s", ErrNoSnapshots, id)
	}
	return m.Close(ctx, id, false)
}

// Stats returns a point-in-time event-count snapshot.
func (m *Manager) Stats() ManagerStats {
	return ManagerStats{
		Live:           m.Len(),
		InFlight:       len(m.gate),
		MaxInFlight:    m.cfg.MaxInFlight,
		Restores:       m.stats.restores.Load(),
		DiskRestores:   m.stats.diskRestores.Load(),
		Evictions:      m.stats.evictions.Load(),
		AsyncWrites:    m.stats.asyncWrites.Load(),
		SyncWriteFalls: m.stats.syncFalls.Load(),
		WriteErrors:    m.stats.writeErrors.Load(),
		Backend:        backend.Snapshot(),
		EvidenceCache:  llm.EvidenceCacheStats(),
		KnowledgeCache: memory.KnowledgeCacheStats(),
		MemorySegments: evalcache.SegmentStats(),
		Retrieval:      retrieval.Snapshot(),
	}
}

// shard hashes id with FNV-1a onto its lock domain.
func (m *Manager) shard(id string) *shard {
	return m.shards[m.stripe(id)]
}

func (m *Manager) stripe(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h % uint32(len(m.shards))
}

// validID reports whether id is safe as a session name (and snapshot
// file stem): 1-64 letters, digits, '-' or '_'.
func validID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// Create builds a new session under the given ID (empty means a
// generated one) and registers it, evicting the least-recently-used idle
// session if the manager is at capacity. The (potentially expensive)
// agent-stack construction runs outside every lock; a placeholder entry
// reserves the ID so concurrent creates and gets see it immediately.
func (m *Manager) Create(id string, cfg Config) (*Session, error) {
	var (
		sh *shard
		e  = &entry{ready: make(chan struct{})}
	)
	if id == "" {
		// Claim the next free generated ID, skipping any the user took.
		for {
			id = fmt.Sprintf("s%04d", m.seq.Add(1))
			sh = m.shard(id)
			sh.mu.Lock()
			if _, taken := sh.entries[id]; !taken {
				sh.entries[id] = e
				sh.mu.Unlock()
				break
			}
			sh.mu.Unlock()
		}
	} else {
		if !validID(id) {
			return nil, fmt.Errorf("session: invalid id %q (want 1-64 of [A-Za-z0-9_-])", id)
		}
		sh = m.shard(id)
		sh.mu.Lock()
		if _, taken := sh.entries[id]; taken {
			sh.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrExists, id)
		}
		sh.entries[id] = e
		sh.mu.Unlock()
	}
	if err := m.reserve(); err != nil {
		m.abort(sh, id, e, err)
		return nil, err
	}
	s, err := newSession(id, cfg, nil, &m.use, m.now)
	if err != nil {
		m.unreserve()
		m.abort(sh, id, e, err)
		return nil, err
	}
	m.commit(sh, e, s)
	return s, nil
}

// Get returns the live session with the given ID. When the manager has a
// snapshot directory and the session is not live (evicted or from an
// earlier process), it is transparently restored — from the in-memory
// pending snapshot if its eviction write has not landed yet, otherwise
// from disk. Concurrent Gets of the same evicted ID share one restore;
// Gets of other IDs never wait on it.
func (m *Manager) Get(id string) (*Session, error) {
	sh := m.shard(id)
	sh.mu.Lock()
	if e, ok := sh.entries[id]; ok {
		// Committed entries resolve under the lock we already hold —
		// no channel hop on the hot lookup path.
		if s := e.s; s != nil {
			sh.mu.Unlock()
			return s, nil
		}
		sh.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		return e.s, nil
	}
	if m.cfg.SnapshotDir == "" || !validID(id) {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	e := &entry{ready: make(chan struct{})}
	sh.entries[id] = e
	sh.mu.Unlock()

	s, err := m.restore(id)
	if err != nil {
		m.abort(sh, id, e, err)
		return nil, err
	}
	m.commit(sh, e, s)
	return s, nil
}

// restore rebuilds the session from its pending or on-disk snapshot.
// Runs with a placeholder published but no lock held.
func (m *Manager) restore(id string) (*Session, error) {
	var snap Snapshot
	var staged *pendingSnap
	if v, ok := m.pending.LoadAndDelete(id); ok {
		// Evicted, write still pending: restore straight from memory and
		// cancel the write — removing the entry hands ownership of the
		// state back to the live session, and a sweep that already
		// grabbed the ID finds nothing to flush.
		m.dirty.Add(-1)
		staged = v.(*pendingSnap)
		snap = staged.snap
	} else {
		var err error
		snap, err = readSnapshot(m.snapshotPath(id))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
			}
			return nil, err
		}
		m.stats.diskRestores.Add(1)
	}
	if m.testRestoreStall != nil {
		m.testRestoreStall(id)
	}
	// restage puts the consumed pending snapshot back on a failure path:
	// it is the only copy of the state (its write was cancelled above),
	// so dropping it would lose the session forever.
	restage := func() {
		if staged != nil {
			if prev, _ := m.pending.Swap(id, staged); prev == nil {
				m.dirty.Add(1)
			}
		}
	}
	if err := m.reserve(); err != nil {
		restage()
		return nil, err
	}
	s, err := snap.restore(m.resolveSegment, &m.use, m.now)
	if err != nil {
		// A snapshot naming a model backend this process cannot build
		// (e.g. a remote endpoint no longer configured) fails here.
		m.unreserve()
		restage()
		return nil, err
	}
	m.stats.restores.Add(1)
	return s, nil
}

// commit publishes a built session under its placeholder entry.
func (m *Manager) commit(sh *shard, e *entry, s *Session) {
	sh.mu.Lock()
	e.s = s
	close(e.ready)
	sh.mu.Unlock()
}

// abort withdraws a placeholder entry, sharing err with every waiter.
func (m *Manager) abort(sh *shard, id string, e *entry, err error) {
	sh.mu.Lock()
	delete(sh.entries, id)
	e.err = err
	close(e.ready)
	sh.mu.Unlock()
}

// reserve claims one slot of global capacity, evicting the globally
// least-recently-used idle session when the manager is full. The caller
// owns the reservation: commit converts it into a live session, failure
// paths must release it via unreserve.
func (m *Manager) reserve() error {
	if m.live.Add(1) <= int64(m.cfg.Capacity) {
		return nil
	}
	if err := m.evictOne(); err != nil {
		m.unreserve()
		return err
	}
	return nil
}

func (m *Manager) unreserve() { m.live.Add(-1) }

// evictOne removes the least-recently-used idle session across all
// shards, capturing its snapshot for asynchronous persistence. It fails
// with ErrBusy when every live session is mid-operation.
func (m *Manager) evictOne() error {
	for {
		// A concurrent Close may already have freed the slot we need.
		if m.live.Load() <= int64(m.cfg.Capacity) {
			return nil
		}
		// Collect candidates shard by shard — no stop-the-world.
		var cands []*Session
		for _, sh := range m.shards {
			sh.mu.Lock()
			for _, e := range sh.entries {
				if e.s != nil {
					cands = append(cands, e.s)
				}
			}
			sh.mu.Unlock()
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].lru() < cands[j].lru() })
		stolen := false
		for _, v := range cands {
			sh := m.shard(v.id)
			sh.mu.Lock()
			e, ok := sh.entries[v.id]
			if !ok || e.s != v {
				sh.mu.Unlock()
				stolen = true
				continue // claimed by a racing evictor or closer
			}
			if !v.tryAcquire() {
				sh.mu.Unlock()
				continue // mid-operation: not evictable
			}
			// Capture state and stage it as pending *before* unpublishing,
			// so no Get can ever observe the session as missing: it is
			// either live in the shard table or restorable from pending.
			// The deep copy in snapshotLocked is the one deliberate
			// exception to the no-heavy-work-under-shard-locks rule:
			// staging after unpublishing would open a window where the
			// session is in neither place and a racing Get reads a stale
			// disk file.
			var ps *pendingSnap
			if m.cfg.SnapshotDir != "" {
				ps = &pendingSnap{snap: v.snapshotLocked()}
				if prev, _ := m.pending.Swap(v.id, ps); prev == nil {
					m.dirty.Add(1)
				}
			}
			delete(sh.entries, v.id)
			sh.mu.Unlock()
			v.markClosed()
			v.release()
			m.unreserve()
			m.stats.evictions.Add(1)
			// The write itself is deferred: the sweeper drains the
			// pending set after flushSettle, and a restore inside that
			// window cancels it entirely. The evictor flushes its own
			// snapshot now only when the set outgrows its RAM bound, or
			// after Shutdown, when there is no sweeper left to drain it.
			if ps != nil && (m.dirty.Load() > maxDirty || m.stopped.Load()) {
				m.queueWrite(v.id, ps)
			}
			return nil
		}
		if !stolen {
			return ErrBusy
		}
		// Every candidate we saw was taken by a concurrent evictor —
		// other creates are committing, so rescan for their sessions.
	}
}

// queueWrite hands ps (the pending snapshot for id) to the background
// writer pool, falling back to an inline write when the pool is
// saturated. The CAS on ps.queued makes the handoff idempotent: repeat
// calls while a write task is outstanding are no-ops.
func (m *Manager) queueWrite(id string, ps *pendingSnap) {
	if !ps.queued.CompareAndSwap(false, true) {
		return // a write task for this snapshot is already outstanding
	}
	task := func() {
		m.flushPending(id)
		ps.queued.Store(false)
	}
	if m.writer != nil && m.writer.TrySubmit(task) {
		m.stats.asyncWrites.Add(1)
		return
	}
	m.stats.syncFalls.Add(1)
	task()
}

// flushPending writes id's pending snapshot (if it still has one) to
// disk. The per-stripe flush lock serializes writers of the same ID so a
// superseded snapshot can never overwrite a fresher one; on a write
// error the pending entry is kept, so the state stays restorable from
// memory.
func (m *Manager) flushPending(id string) {
	mu := &m.flushMu[m.stripe(id)]
	mu.Lock()
	defer mu.Unlock()
	v, ok := m.pending.Load(id)
	if !ok {
		return // restored, discarded, or already flushed
	}
	ps := v.(*pendingSnap)
	if _, err := m.writeSnapshotData(id, ps.snap); err != nil {
		m.stats.writeErrors.Add(1)
		return
	}
	if m.pending.CompareAndDelete(id, ps) {
		m.dirty.Add(-1)
	}
}

// Flush blocks until every staged eviction snapshot has reached disk
// (or recorded a write error) — the deterministic barrier tests and
// shutdown use. It sweeps the write-behind set immediately rather than
// waiting out the settle window, then drains the writer pool.
func (m *Manager) Flush() {
	if m.writer == nil {
		return
	}
	m.sweep()
	// sweep skips any entry whose write task is already outstanding,
	// and that task may be running inline (pool-saturated fallback) in
	// another goroutine where the pool barrier below cannot see it.
	// Flushing every remaining entry here closes that gap: the stripe
	// lock serializes us with any in-flight writer, and whichever side
	// loses the race finds the pending entry gone and no-ops.
	m.pending.Range(func(k, _ any) bool {
		m.flushPending(k.(string))
		return true
	})
	m.writer.Flush()
}

// Shutdown stops the sweeper, flushes every staged eviction snapshot,
// and drains the background writer. The manager remains usable for
// in-memory operations; further eviction snapshots are written inline.
func (m *Manager) Shutdown() {
	if m.writer == nil {
		return
	}
	m.stopped.Store(true)
	m.stopOnce.Do(func() {
		close(m.sweepStop)
		<-m.sweepDone
	})
	m.sweep()
	m.writer.Close()
}

// List returns a status per live session, ordered by ID. Shards are
// visited one at a time — a listing never freezes the whole runtime.
func (m *Manager) List() []Status {
	var sessions []*Session
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.s != nil {
				sessions = append(sessions, e.s)
			}
		}
		sh.mu.Unlock()
	}
	out := make([]Status, len(sessions))
	for i, s := range sessions {
		out[i] = s.Status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.s != nil {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Snapshot persists the session's memory, event log and config to
// <SnapshotDir>/<id>.json and returns the path. For a live session it
// waits for the session to go idle (honoring ctx) so the snapshot is
// consistent; for an evicted one it flushes the pending write (or finds
// the file already on disk) without restoring the session into the live
// set.
func (m *Manager) Snapshot(ctx context.Context, id string) (string, error) {
	if m.cfg.SnapshotDir == "" {
		return "", fmt.Errorf("session: manager has no snapshot directory")
	}
	if !validID(id) {
		return "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	sh := m.shard(id)
	sh.mu.Lock()
	e, live := sh.entries[id]
	sh.mu.Unlock()
	if live {
		<-e.ready
		if e.err == nil {
			s := e.s
			if err := s.acquire(ctx); err != nil {
				return "", err
			}
			defer s.release()
			return m.writeSnapshot(s)
		}
		// The pending create/restore failed; fall through to disk.
	}
	// Not live: the snapshot already exists (pending or on disk) — do
	// not restore a whole agent stack just to re-write it.
	m.flushPending(id)
	path := m.snapshotPath(id)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return "", err
	}
	return path, nil
}

// Close ends the session's life. With discard, its snapshot file (if
// any) is removed too; otherwise, when the manager has a snapshot
// directory, the final state is persisted first so the session can be
// restored later.
func (m *Manager) Close(ctx context.Context, id string, discard bool) error {
	sh := m.shard(id)
	sh.mu.Lock()
	e, ok := sh.entries[id]
	sh.mu.Unlock()
	if ok {
		<-e.ready
	}
	if !ok || e.err != nil {
		return m.closeNotLive(id, discard)
	}
	s := e.s
	if err := s.acquire(ctx); err != nil {
		return err
	}
	if !discard && m.cfg.SnapshotDir != "" {
		if _, err := m.writeSnapshot(s); err != nil {
			s.release()
			return err
		}
	}
	s.markClosed()
	s.release()
	sh.mu.Lock()
	if cur, still := sh.entries[id]; still && cur == e {
		delete(sh.entries, id)
	}
	sh.mu.Unlock()
	m.unreserve()
	if discard && m.cfg.SnapshotDir != "" {
		m.discardSnapshot(id)
	}
	return nil
}

// closeNotLive handles Close for a session that only exists as a
// snapshot (pending or on disk).
func (m *Manager) closeNotLive(id string, discard bool) error {
	if m.cfg.SnapshotDir == "" || !validID(id) {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !discard {
		m.flushPending(id)
		if _, err := os.Stat(m.snapshotPath(id)); err == nil {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	_, hadPending := m.pending.Load(id)
	if err := m.discardSnapshot(id); err != nil {
		return err
	}
	if hadPending {
		return nil
	}
	// Report NotFound only when there was nothing to discard at all.
	if _, err := os.Stat(m.snapshotPath(id)); os.IsNotExist(err) {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return nil
}

// discardSnapshot drops id's persisted state: the in-memory pending
// snapshot and the on-disk file, under the stripe flush lock so a
// concurrent background write cannot resurrect either.
func (m *Manager) discardSnapshot(id string) error {
	mu := &m.flushMu[m.stripe(id)]
	mu.Lock()
	defer mu.Unlock()
	if _, ok := m.pending.LoadAndDelete(id); ok {
		m.dirty.Add(-1)
	}
	if err := os.Remove(m.snapshotPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (m *Manager) snapshotPath(id string) string {
	return filepath.Join(m.cfg.SnapshotDir, id+".json")
}

// segmentPath is where a segment's items persist, keyed by content
// fingerprint so every session sharing the segment shares the file.
func (m *Manager) segmentPath(fingerprint string) string {
	return filepath.Join(m.cfg.SnapshotDir, "segments", fingerprint+".json")
}

// segFile is the on-disk form of one memory segment.
type segFile struct {
	ID          string        `json:"id"`
	Fingerprint string        `json:"fingerprint"`
	Items       []memory.Item `json:"knowledge"`
}

// persistSegments writes each segment's items to its fingerprint-keyed
// file, once per process (and skipping files already on disk from an
// earlier one). Segment files land before the session file that
// references them — writeSnapshotData orders it so — which keeps a
// crash from leaving a session snapshot pointing at a missing segment.
func (m *Manager) persistSegments(segs []*memory.Segment) error {
	for _, seg := range segs {
		fp := seg.Fingerprint()
		if _, done := m.segDone.Load(fp); done {
			continue
		}
		dir := filepath.Join(m.cfg.SnapshotDir, "segments")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("session: segment dir: %w", err)
		}
		path := m.segmentPath(fp)
		if _, err := os.Stat(path); err == nil {
			m.segDone.Store(fp, struct{}{})
			continue
		}
		data, err := json.Marshal(segFile{ID: seg.ID(), Fingerprint: fp, Items: seg.Items()})
		if err != nil {
			return fmt.Errorf("session: marshal segment %s: %w", fp, err)
		}
		// Unique temp name per writer: two sessions racing to persist the
		// same segment both write identical content, and rename is atomic.
		tmp, err := os.CreateTemp(dir, fp+".tmp*")
		if err != nil {
			return fmt.Errorf("session: write segment %s: %w", fp, err)
		}
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("session: write segment %s: %w", fp, err)
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("session: write segment %s: %w", fp, err)
		}
		if err := os.Chmod(tmp.Name(), 0o644); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("session: write segment %s: %w", fp, err)
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("session: finalize segment %s: %w", fp, err)
		}
		m.segDone.Store(fp, struct{}{})
	}
	return nil
}

// resolveSegment maps a snapshot's segment reference to a live
// segment: the process-wide intern table first (free), the segment file
// second (rebuild + verify + intern).
func (m *Manager) resolveSegment(ref SegmentRef) (*memory.Segment, error) {
	if seg := evalcache.LookupSegment(ref.Fingerprint); seg != nil {
		return seg, nil
	}
	data, err := os.ReadFile(m.segmentPath(ref.Fingerprint))
	if err != nil {
		return nil, fmt.Errorf("session: segment %s: %w", ref.Fingerprint, err)
	}
	var f segFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("session: parse segment %s: %w", ref.Fingerprint, err)
	}
	seg := memory.NewSegment(f.ID, f.Items)
	if seg.Fingerprint() != ref.Fingerprint {
		return nil, fmt.Errorf("session: segment %s: content fingerprint mismatch (got %s)", ref.Fingerprint, seg.Fingerprint())
	}
	return evalcache.InternSegment(seg), nil
}

// snapBufPool recycles snapshot encode buffers; oversized ones are
// dropped rather than pinned.
var snapBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

// writeSnapshot persists s atomically. The caller holds the session's
// operation lock.
func (m *Manager) writeSnapshot(s *Session) (string, error) {
	mu := &m.flushMu[m.stripe(s.id)]
	mu.Lock()
	defer mu.Unlock()
	return m.writeSnapshotData(s.id, s.snapshotLocked())
}

// writeSnapshotData encodes snap compactly through a pooled buffer and
// writes it atomically (tmp file + rename). Callers hold the stripe
// flush lock, which serializes same-ID writes.
func (m *Manager) writeSnapshotData(id string, snap Snapshot) (string, error) {
	m.mkdirOnce.Do(func() { m.mkdirErr = os.MkdirAll(m.cfg.SnapshotDir, 0o755) })
	if m.mkdirErr != nil {
		return "", fmt.Errorf("session: snapshot dir: %w", m.mkdirErr)
	}
	// Segment files first: a session file must never reference a segment
	// that is not yet durable.
	if err := m.persistSegments(snap.segs); err != nil {
		return "", err
	}
	buf := snapBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBuf {
			snapBufPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(snap); err != nil {
		return "", fmt.Errorf("session: marshal snapshot: %w", err)
	}
	path := m.snapshotPath(id)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return "", fmt.Errorf("session: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("session: finalize snapshot: %w", err)
	}
	return path, nil
}

// snapshotSchema is the schema every snapshot is written in: the memory
// is segment references plus delta items (an untrained session has no
// segments, so its whole memory is the delta), and the session's event
// log rides along. readSnapshot also reads schema 2, the same shape
// before the log was persisted: its memory restores and its log starts
// empty. Every other value is refused.
const snapshotSchema = 3

// SegmentRef names one attached memory segment in a snapshot. The
// items themselves live once per segment in
// <SnapshotDir>/segments/<fingerprint>.json (and, when the segment is
// interned, in memory); the session file carries only this reference.
type SegmentRef struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Items       int    `json:"items"`
}

// Snapshot is the on-disk form of a session: everything needed to
// rebuild an identical agent — its configuration, knowledge memory,
// event log and lifecycle state.
type Snapshot struct {
	ID       string         `json:"id"`
	Schema   int            `json:"schema"`
	Config   Config         `json:"config"`
	Trained  bool           `json:"trained"`
	Created  time.Time      `json:"created"`
	Saved    time.Time      `json:"saved"`
	Segments []SegmentRef   `json:"segments,omitempty"`
	Delta    []memory.Item  `json:"delta,omitempty"`
	Events   []stream.Event `json:"events,omitempty"`

	// segs carries the live segment pointers alongside the refs while
	// the snapshot stays in memory (the write-behind pending set), so a
	// restore inside the settle window re-attaches them with no disk
	// read and no intern lookup. Never serialized.
	segs []*memory.Segment
}

func readSnapshot(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	var snap Snapshot
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return Snapshot{}, fmt.Errorf("session: parse snapshot %s: %w", path, err)
	}
	if snap.Schema != snapshotSchema && snap.Schema != 2 {
		return Snapshot{}, fmt.Errorf("session: snapshot %s has schema %d, want 2 or %d", path, snap.Schema, snapshotSchema)
	}
	if err := checkLog(snap.Events); err != nil {
		return Snapshot{}, fmt.Errorf("session: snapshot %s: event log: %w", path, err)
	}
	return snap, nil
}

// restore rebuilds a live session from a snapshot: the agent stack is
// reconstructed through the factory around the persisted event log,
// then the memory is replaced with the persisted state. resolve maps a
// segment reference to a live segment (intern table first, segment file
// second).
func (snap Snapshot) restore(resolve func(SegmentRef) (*memory.Segment, error), use *atomic.Int64, now func() time.Time) (*Session, error) {
	s, err := newSession(snap.ID, snap.Config, snap.Events, use, now)
	if err != nil {
		return nil, err
	}
	segs := snap.segs
	if segs == nil {
		// Read from disk: re-attach each referenced segment, sharing the
		// interned copy whenever this process already holds it.
		segs = make([]*memory.Segment, 0, len(snap.Segments))
		for _, ref := range snap.Segments {
			seg, err := resolve(ref)
			if err != nil {
				return nil, err
			}
			segs = append(segs, seg)
		}
	}
	s.agent.Memory.RestoreParts(segs, snap.Delta)
	s.created = snap.Created
	s.trained = snap.Trained
	return s, nil
}
