package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evalcache"
	"repro/internal/memory"
	"repro/internal/parallel"
	"repro/internal/persist"
	"repro/internal/stream"
)

// ManagerConfig configures a Manager.
type ManagerConfig struct {
	// Capacity bounds live sessions (default 64). Creating or restoring
	// past it evicts the least-recently-used idle session — snapshotted
	// to disk first when SnapshotDir is set, so it can be restored
	// transparently on the next Get.
	Capacity int
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
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// entry is one slot in the session table. A just-published slot is
// pending (s == nil, ready open) while its owner builds or restores the
// agent stack outside the table lock; concurrent lookups of the same ID
// wait on ready instead of repeating the work (singleflight). The owner
// either commits a live session or aborts with an error that every
// waiter shares.
type entry struct {
	s     *Session
	err   error
	ready chan struct{}
}

// flushStripes is the number of flush locks. A flush lock orders the
// disk writes of the IDs hashed onto it; it never guards a lookup.
const flushStripes = 16

// writeQueue bounds the eviction writes waiting for the writer pool. An
// eviction that finds it full writes inline; ask-churn, which evicts on
// nearly every ask, never fills it (sync_write_falls reads 0).
const writeQueue = 64

// ManagerStats counts the manager's session-lifecycle events for
// capacity planning. It is the `sessions` block of GET /v1/stats.
type ManagerStats struct {
	Live           int   `json:"live"`             // committed live sessions
	Restores       int64 `json:"restores"`         // sessions rebuilt from a snapshot file
	DiskRestores   int64 `json:"disk_restores"`    // snapshot files read by a restore
	Evictions      int64 `json:"evictions"`        // sessions evicted to make room
	AsyncWrites    int64 `json:"async_writes"`     // eviction snapshots queued to the writer pool
	SyncWriteFalls int64 `json:"sync_write_falls"` // eviction snapshots written inline (pool full or closed)
	WriteErrors    int64 `json:"write_errors"`     // eviction snapshot writes that failed, one per attempt
	InFlight       int   `json:"inflight_ops"`     // agent operations currently holding an admission slot
	MaxInFlight    int   `json:"max_inflight"`     // admission gate size (0 = unlimited)
}

// Manager owns named, long-lived agent sessions: the runtime every
// front-end (CLI, repl, HTTP daemon, eval harness) builds on. One mutex
// guards the session table, and all blocking work (snapshot I/O, agent
// construction) runs off it.
type Manager struct {
	cfg ManagerConfig

	// mu guards sessions and seq. Nothing that blocks — disk I/O, JSON
	// codec work, agent construction — ever runs while it is held, with
	// one deliberate exception: evictOne deep-copies the victim's state
	// (snapshotLocked, no codec or I/O) under it, so the session is
	// staged as pending before it is unpublished and can never be
	// observed as missing.
	mu       sync.Mutex
	sessions map[string]*entry
	seq      int // generated-ID sequence

	// gate is the admission semaphore when MaxInFlight > 0 (nil
	// otherwise): one slot per concurrently executing agent operation.
	gate chan struct{}

	live atomic.Int64 // committed sessions + in-flight reservations
	use  atomic.Int64 // global LRU clock
	now  func() time.Time

	// writer writes eviction snapshots in the background; flushMu
	// serializes disk writes per ID stripe so a superseded write can
	// never land after a fresher one. pending holds each eviction
	// snapshot from the moment its session leaves the table until its
	// write lands; it orders writes and restores, and never serves a
	// session.
	writer    *parallel.Pool
	flushMu   [flushStripes]sync.Mutex
	pending   sync.Map // id -> *Snapshot
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
	// testCloseStall, when set by tests, runs in Close right after the
	// closed session's op lock is released.
	testCloseStall func(id string)
}

// NewManager returns an empty manager.
func NewManager(cfg ManagerConfig) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		sessions: map[string]*entry{},
		now:      time.Now,
	}
	if cfg.MaxInFlight > 0 {
		m.gate = make(chan struct{}, cfg.MaxInFlight)
	}
	if cfg.SnapshotDir != "" {
		m.writer = parallel.NewPool(2, writeQueue)
	}
	return m
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
	}
}

// stripe hashes id with FNV-1a onto its flush lock.
func stripe(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h % flushStripes
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
// session if the manager is at capacity. An ID is taken while its
// session is live and, with a snapshot directory, while its snapshot is
// pending or on disk. The (potentially expensive) agent-stack
// construction runs outside every lock; a placeholder entry reserves the
// ID so concurrent creates and gets see it immediately.
func (m *Manager) Create(id string, cfg Config) (*Session, error) {
	if id != "" && !validID(id) {
		return nil, fmt.Errorf("%w %q (want 1-64 of [A-Za-z0-9_-])", ErrInvalidID, id)
	}
	generated := id == ""
	var e *entry
	for {
		e = &entry{ready: make(chan struct{})}
		m.mu.Lock()
		if generated {
			// Claim the next free generated ID, skipping any the user took.
			for {
				m.seq++
				id = fmt.Sprintf("s%04d", m.seq)
				if _, taken := m.sessions[id]; !taken {
					break
				}
			}
		} else if _, taken := m.sessions[id]; taken {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrExists, id)
		}
		m.sessions[id] = e
		m.mu.Unlock()
		// The disk is checked with the placeholder published, so an
		// eviction that unpublished id before it has already staged the
		// snapshot as pending, and none can stage one after it.
		if !m.hasSnapshot(id) {
			break
		}
		err := fmt.Errorf("%w: %s", ErrExists, id)
		m.abort(id, e, err)
		if !generated {
			return nil, err
		}
	}
	if err := m.reserve(); err != nil {
		m.abort(id, e, err)
		return nil, err
	}
	s, err := newSession(id, cfg, eventLog{}, &m.use, m.now)
	if err != nil {
		m.unreserve()
		m.abort(id, e, err)
		return nil, err
	}
	m.commit(e, s)
	return s, nil
}

// hasSnapshot reports whether id has a pending eviction write or a
// snapshot file. Pending is checked first: a write leaves pending only
// after its file has landed.
func (m *Manager) hasSnapshot(id string) bool {
	if m.cfg.SnapshotDir == "" {
		return false
	}
	if _, ok := m.pending.Load(id); ok {
		return true
	}
	_, err := os.Stat(m.snapshotPath(id))
	return err == nil
}

// Get returns the live session with the given ID. When the manager has a
// snapshot directory and the session is not live (evicted or from an
// earlier process), it is transparently restored from its snapshot
// file, after its eviction write lands if that is still pending.
// Concurrent Gets of the same evicted ID share one restore; Gets of
// other IDs never wait on it.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	for {
		e, ok := m.sessions[id]
		if !ok {
			break
		}
		// Committed entries resolve under the lock we already hold —
		// no channel hop on the hot lookup path.
		if s := e.s; s != nil {
			m.mu.Unlock()
			return s, nil
		}
		m.mu.Unlock()
		<-e.ready
		switch {
		case errors.Is(e.err, ErrExists):
			// A Create found id persisted and withdrew its placeholder:
			// look again, and restore the persisted session.
			m.mu.Lock()
			continue
		case e.err != nil:
			return nil, e.err
		}
		return e.s, nil
	}
	if m.cfg.SnapshotDir == "" || !validID(id) {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	e := &entry{ready: make(chan struct{})}
	m.sessions[id] = e
	m.mu.Unlock()

	s, err := m.restore(id)
	if err != nil {
		m.abort(id, e, err)
		return nil, err
	}
	m.commit(e, s)
	return s, nil
}

// restore rebuilds the session from its snapshot file. Runs with a
// placeholder published but no lock held.
func (m *Manager) restore(id string) (*Session, error) {
	// An eviction write still pending lands first, so the file read is
	// never older than the evicted state.
	if err := m.flushPending(id); err != nil {
		return nil, err
	}
	snap, err := readSnapshot(m.snapshotPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, err
	}
	m.stats.diskRestores.Add(1)
	if m.testRestoreStall != nil {
		m.testRestoreStall(id)
	}
	if err := m.reserve(); err != nil {
		return nil, err
	}
	s, err := snap.restore(m.resolveSegment, &m.use, m.now)
	if err != nil {
		// A snapshot naming a model backend this process cannot build
		// (e.g. a remote endpoint no longer configured) fails here.
		m.unreserve()
		return nil, err
	}
	m.stats.restores.Add(1)
	return s, nil
}

// commit publishes a built session under its placeholder entry.
func (m *Manager) commit(e *entry, s *Session) {
	m.mu.Lock()
	e.s = s
	close(e.ready)
	m.mu.Unlock()
}

// abort withdraws a placeholder entry, sharing err with every waiter.
func (m *Manager) abort(id string, e *entry, err error) {
	m.mu.Lock()
	delete(m.sessions, id)
	e.err = err
	close(e.ready)
	m.mu.Unlock()
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

// evictOne removes the least-recently-used idle session and queues the
// write of its snapshot. It fails with ErrBusy when every live session
// is mid-operation. The pass runs under the table lock, so no racing
// evictor or Close can unpublish a candidate it has chosen.
func (m *Manager) evictOne() error {
	m.mu.Lock()
	// A concurrent Close may already have freed the slot we need.
	if m.live.Load() <= int64(m.cfg.Capacity) {
		m.mu.Unlock()
		return nil
	}
	cands := make([]*Session, 0, len(m.sessions))
	for _, e := range m.sessions {
		if e.s != nil {
			cands = append(cands, e.s)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lru() < cands[j].lru() })
	for _, v := range cands {
		if !v.tryAcquire() {
			continue // mid-operation: not evictable
		}
		// Capture state and stage it as pending *before* unpublishing,
		// so a Get that finds the ID missing from the table always finds
		// its pending write, and lands it before reading the file. The
		// deep copy in snapshotLocked is the one deliberate exception to
		// the no-heavy-work-under-the-table-lock rule: staging after
		// unpublishing would open a window where the session is in
		// neither place and a racing Get reads a stale disk file.
		staged := m.cfg.SnapshotDir != ""
		if staged {
			snap := v.snapshotLocked()
			m.pending.Store(v.id, &snap)
		}
		delete(m.sessions, v.id)
		m.mu.Unlock()
		v.markClosed()
		v.release()
		m.unreserve()
		m.stats.evictions.Add(1)
		if staged {
			m.queueWrite(v.id)
		}
		return nil
	}
	m.mu.Unlock()
	return ErrBusy
}

// queueWrite hands the write of id's pending snapshot to the writer
// pool, or writes it inline when the pool is full or closed. A failed
// write stays pending until the next restore, Snapshot, Close, Flush or
// Shutdown that touches the ID retries it.
func (m *Manager) queueWrite(id string) {
	task := func() { _ = m.flushPending(id) }
	if m.writer.TrySubmit(task) {
		m.stats.asyncWrites.Add(1)
		return
	}
	m.stats.syncFalls.Add(1)
	task()
}

// flushPending writes id's pending snapshot, if it still has one, to
// disk. The per-stripe flush lock serializes writers of the same ID, so
// a caller that finds the write in flight waits for it, and a
// superseded snapshot can never overwrite a fresher one. On a write
// error the snapshot stays pending and the error is returned.
func (m *Manager) flushPending(id string) error {
	// Checked first without the stripe lock, so a caller with nothing
	// pending — nearly every restore — never queues behind an unrelated
	// write on its stripe. A snapshot leaves pending only after its
	// write lands, so a miss here means the file is current.
	if _, ok := m.pending.Load(id); !ok {
		return nil
	}
	mu := &m.flushMu[stripe(id)]
	mu.Lock()
	defer mu.Unlock()
	v, ok := m.pending.Load(id)
	if !ok {
		return nil // discarded or already written
	}
	snap := v.(*Snapshot)
	if _, err := m.writeSnapshotData(id, *snap); err != nil {
		m.stats.writeErrors.Add(1)
		return err
	}
	m.pending.CompareAndDelete(id, snap)
	return nil
}

// Flush blocks until every eviction snapshot staged before the call has
// reached disk or recorded a write error: the barrier tests and
// shutdown use. It waits for the writer pool to drain, then lands
// whatever is still pending — a write that failed, or one running
// inline in another goroutine, which the stripe lock waits out.
func (m *Manager) Flush() {
	if m.writer == nil {
		return
	}
	m.writer.Flush()
	m.pending.Range(func(k, _ any) bool {
		_ = m.flushPending(k.(string))
		return true
	})
}

// Shutdown closes the writer pool and lands every pending eviction
// snapshot. The manager remains usable for in-memory operations; later
// evictions write inline, because a closed pool refuses TrySubmit.
func (m *Manager) Shutdown() {
	if m.writer == nil {
		return
	}
	m.writer.Close()
	m.Flush()
}

// List returns a status per live session, ordered by ID. The statuses
// are read after the table lock is released.
func (m *Manager) List() []Status {
	var sessions []*Session
	m.mu.Lock()
	for _, e := range m.sessions {
		if e.s != nil {
			sessions = append(sessions, e.s)
		}
	}
	m.mu.Unlock()
	out := make([]Status, len(sessions))
	for i, s := range sessions {
		out[i] = s.Status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.sessions {
		if e.s != nil {
			n++
		}
	}
	return n
}

// Snapshot persists the session's memory, event log and config to
// <SnapshotDir>/<id>.json and returns the path. For a live session it
// waits for the session to go idle (honoring ctx) so the snapshot is
// consistent; for an evicted one it lands the pending write (or finds
// the file already on disk) without restoring the session into the live
// set.
func (m *Manager) Snapshot(ctx context.Context, id string) (string, error) {
	if m.cfg.SnapshotDir == "" {
		return "", fmt.Errorf("session: manager has no snapshot directory")
	}
	if !validID(id) {
		return "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	m.mu.Lock()
	e, live := m.sessions[id]
	m.mu.Unlock()
	if live {
		<-e.ready
		// A failed create or restore, or a session that an eviction or
		// a Close closed under the lookup, falls through to disk.
		if e.err == nil {
			err := e.s.acquire(ctx)
			if err == nil {
				defer e.s.release()
				return m.writeSnapshot(e.s)
			}
			if !errors.Is(err, ErrClosed) {
				return "", err
			}
		}
	}
	// Not live: the snapshot already exists (pending or on disk) — do
	// not restore a whole agent stack just to re-write it.
	return m.persisted(id)
}

// persisted lands id's pending eviction write, if any, and returns the
// path of its snapshot file, or ErrNotFound when there is none.
func (m *Manager) persisted(id string) (string, error) {
	if err := m.flushPending(id); err != nil {
		return "", err
	}
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
	m.mu.Lock()
	e, ok := m.sessions[id]
	m.mu.Unlock()
	if ok {
		<-e.ready
	}
	if !ok || e.err != nil {
		return m.closeNotLive(id, discard)
	}
	s := e.s
	if err := s.acquire(ctx); err != nil {
		if errors.Is(err, ErrClosed) {
			// An eviction or another Close closed it under the lookup.
			return m.closeNotLive(id, discard)
		}
		return err
	}
	if !discard && m.cfg.SnapshotDir != "" {
		if _, err := m.writeSnapshot(s); err != nil {
			s.release()
			return err
		}
	}
	// Unpublish and free the slot while the op lock is still held, so
	// no eviction can take the session and free its slot a second time,
	// and no Create finds the slot held by a closed session.
	m.mu.Lock()
	if m.sessions[id] == e {
		delete(m.sessions, id)
		m.unreserve()
	}
	m.mu.Unlock()
	s.markClosed()
	s.release()
	if m.testCloseStall != nil {
		m.testCloseStall(id)
	}
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
		_, err := m.persisted(id)
		return err
	}
	found, err := m.discardSnapshot(id)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return nil
}

// discardSnapshot drops id's persisted state: the pending snapshot and
// the on-disk file, under the stripe flush lock so a write in flight
// cannot resurrect either. It reports whether either existed.
func (m *Manager) discardSnapshot(id string) (bool, error) {
	mu := &m.flushMu[stripe(id)]
	mu.Lock()
	defer mu.Unlock()
	_, found := m.pending.LoadAndDelete(id)
	switch err := os.Remove(m.snapshotPath(id)); {
	case err == nil:
		return true, nil
	case os.IsNotExist(err):
		return found, nil
	default:
		return found, err
	}
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
		// Two sessions racing to persist the same segment write identical
		// content under distinct temp names, and the rename is atomic.
		if err := persist.WriteFile(path, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(segFile{ID: seg.ID(), Fingerprint: fp, Items: seg.Items()})
		}); err != nil {
			return fmt.Errorf("session: write segment %s: %w", fp, err)
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

// writeSnapshot persists s atomically. The caller holds the session's
// operation lock.
func (m *Manager) writeSnapshot(s *Session) (string, error) {
	mu := &m.flushMu[stripe(s.id)]
	mu.Lock()
	defer mu.Unlock()
	return m.writeSnapshotData(s.id, s.snapshotLocked())
}

// writeSnapshotData writes snap (Snapshot.encode) into a temp file and
// renames it over the session's file (persist.WriteFile). Callers hold
// the stripe flush lock, which serializes same-ID writes.
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
	path := m.snapshotPath(id)
	if err := persist.WriteFile(path, snap.encode); err != nil {
		return "", fmt.Errorf("session: write snapshot: %w", err)
	}
	return path, nil
}

// snapshotSchema is the one schema snapshots are written in. A session
// file is a head line — the config, the memory as segment references
// plus delta items (an untrained session has no segments, so its whole
// memory is the delta), and log_first and log_len — followed by the
// session's event log, log_len compact JSON lines with IDs log_first,
// log_first+1, ... A restore decodes the head only and keeps the lines
// raw (eventLog). readSnapshot also reads schema 3, the same state as
// one JSON object with the log inline as "events", and refuses every
// other value, including schema 2, written before the log was
// persisted.
const (
	snapshotSchema   = 4
	snapshotSchemaV3 = 3
)

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
// event log and lifecycle state. Its fields are the file's head line;
// the event log follows the head.
type Snapshot struct {
	ID       string        `json:"id"`
	Schema   int           `json:"schema"`
	Config   Config        `json:"config"`
	Trained  bool          `json:"trained"`
	Created  time.Time     `json:"created"`
	Saved    time.Time     `json:"saved"`
	Segments []SegmentRef  `json:"segments,omitempty"`
	Delta    []memory.Item `json:"delta,omitempty"`
	// LogFirst is the ID of the log's first event (the next ID when the
	// log is empty) and LogLen the number of event lines after the head.
	LogFirst int64 `json:"log_first"`
	LogLen   int   `json:"log_len"`

	// log is the event log itself. Never serialized with the head.
	log eventLog
	// segs carries the live segment pointers alongside the refs from
	// snapshotLocked to the write, so persistSegments can write each
	// segment's items. Never serialized.
	segs []*memory.Segment
}

// encode writes snap as a schema-4 file, in one write: the head line,
// the log's raw lines unchanged, then one line per decoded event.
func (snap *Snapshot) encode(w io.Writer) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(snap); err != nil {
		return err
	}
	buf.Write(snap.log.raw)
	for _, e := range snap.log.evs {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readSnapshot reads a session file. A schema-4 log is checked by
// scanLog and kept raw; a schema-3 log is decoded and checked by
// checkLog.
func readSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var file struct {
		Snapshot
		Events []stream.Event `json:"events"` // schema 3's inline log
	}
	if err := dec.Decode(&file); err != nil {
		return Snapshot{}, fmt.Errorf("session: parse snapshot %s: %w", path, err)
	}
	snap := file.Snapshot
	switch snap.Schema {
	case snapshotSchema:
		raw, err := scanLog(data[dec.InputOffset():], snap.LogFirst, snap.LogLen)
		if err != nil {
			return Snapshot{}, fmt.Errorf("session: snapshot %s: event log: %w", path, err)
		}
		snap.log = eventLog{raw: raw, rawN: snap.LogLen, first: snap.LogFirst, src: path}
	case snapshotSchemaV3:
		if err := checkLog(file.Events); err != nil {
			return Snapshot{}, fmt.Errorf("session: snapshot %s: event log: %w", path, err)
		}
		snap.log = eventLog{evs: file.Events}
	default:
		return Snapshot{}, fmt.Errorf("session: snapshot %s has schema %d, want %d (or %d)", path, snap.Schema, snapshotSchema, snapshotSchemaV3)
	}
	return snap, nil
}

// restore rebuilds a live session from a snapshot: the agent stack is
// reconstructed through the factory around the persisted event log,
// then the memory is replaced with the persisted state. resolve maps a
// segment reference to a live segment (intern table first, segment file
// second).
func (snap Snapshot) restore(resolve func(SegmentRef) (*memory.Segment, error), use *atomic.Int64, now func() time.Time) (*Session, error) {
	s, err := newSession(snap.ID, snap.Config, snap.log, use, now)
	if err != nil {
		return nil, err
	}
	// Re-attach each referenced segment, sharing the interned copy
	// whenever this process already holds it.
	segs := make([]*memory.Segment, 0, len(snap.Segments))
	for _, ref := range snap.Segments {
		seg, err := resolve(ref)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
	s.agent.Memory.RestoreParts(segs, snap.Delta)
	s.created = snap.Created
	s.trained = snap.Trained
	return s, nil
}
