package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/evalcache"
	"repro/internal/report"
	"repro/internal/stream"
	"repro/internal/websim"
)

// Runtime errors.
var (
	// ErrNotFound is returned for unknown session IDs.
	ErrNotFound = errors.New("session: not found")
	// ErrExists is returned when creating a session whose ID is taken.
	ErrExists = errors.New("session: already exists")
	// ErrInvalidID is returned when creating a session under an ID that
	// is not 1-64 of [A-Za-z0-9_-].
	ErrInvalidID = errors.New("session: invalid id")
	// ErrClosed is returned for operations on a closed session.
	ErrClosed = errors.New("session: closed")
	// ErrBusy is returned when the manager is at capacity and every
	// session is mid-operation, so none can be evicted.
	ErrBusy = errors.New("session: manager at capacity and all sessions busy")
	// ErrNoSnapshots is returned for operations (drain) that require a
	// snapshot directory on a manager configured without one.
	ErrNoSnapshots = errors.New("session: node has no snapshot directory")
)

// Session is one named, long-lived agent. Operations are serialized per
// session — two concurrent Asks on the same session run one after the
// other, never interleaved — and waiting for a busy session honors
// context cancellation, so an HTTP request queued behind a long Train
// can still time out. Metadata reads (Status, MemoryLen, ...) never
// block on a running operation.
type Session struct {
	id      string
	cfg     Config
	agent   *agent.Agent
	engine  *websim.Engine
	created time.Time
	// events is the session's one log, a bounded step-event buffer: the
	// agent's observer publishes into it, SSE subscribers and GET /trace
	// read from it, and snapshots persist it. It is closed when the
	// session is (evicted or deleted), which cleanly ends every
	// subscriber.
	events *eventBuffer

	// ops is the capacity-1 operation lock. Acquiring through a channel
	// (rather than a mutex) lets waiters give up when their context is
	// cancelled and lets the manager probe idleness without blocking.
	ops chan struct{}

	// st guards the mutable metadata below.
	st       sync.Mutex
	trained  bool
	closed   bool
	lastUsed time.Time
	useSeq   int64

	use *atomic.Int64
	now func() time.Time
}

// Status is a point-in-time view of a session. TraceEvents counts the
// events the session has recorded: its last event ID, which continues
// across snapshot and restore.
type Status struct {
	ID          string    `json:"id"`
	Role        string    `json:"role"`
	Seed        uint64    `json:"seed"`
	Trained     bool      `json:"trained"`
	Busy        bool      `json:"busy"`
	MemoryItems int       `json:"memory_items"`
	TraceEvents int64     `json:"trace_events"`
	Created     time.Time `json:"created"`
	LastUsed    time.Time `json:"last_used"`
}

// newSession builds a session whose event log starts as log (empty for
// a new session, the snapshot's retained events for a restored one).
func newSession(id string, cfg Config, log eventLog, use *atomic.Int64, now func() time.Time) (*Session, error) {
	cfg = cfg.withDefaults()
	a, eng, err := NewAgent(cfg)
	if err != nil {
		return nil, err
	}
	t := now()
	s := &Session{
		id:       id,
		cfg:      cfg,
		agent:    a,
		engine:   eng,
		created:  t,
		events:   newEventBuffer(log),
		ops:      make(chan struct{}, 1),
		lastUsed: t,
		useSeq:   use.Add(1), // creation counts as a use for LRU order
		use:      use,
		now:      now,
	}
	// Every incremental step the agent emits lands in the session's
	// event buffer, where SSE subscribers can follow it live.
	a.Observer = s.events.publish
	return s, nil
}

// acquire takes the operation lock, waiting until the session is free or
// ctx is done. It fails on closed sessions.
func (s *Session) acquire(ctx context.Context) error {
	select {
	case s.ops <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.st.Lock()
	closed := s.closed
	s.st.Unlock()
	if closed {
		<-s.ops
		return fmt.Errorf("%w: %s", ErrClosed, s.id)
	}
	return nil
}

// tryAcquire takes the operation lock only if the session is idle.
func (s *Session) tryAcquire() bool {
	select {
	case s.ops <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns the operation lock, stamping last-use for LRU order.
func (s *Session) release() {
	s.st.Lock()
	s.lastUsed = s.now()
	s.useSeq = s.use.Add(1)
	s.st.Unlock()
	<-s.ops
}

// ID returns the session's name.
func (s *Session) ID() string { return s.id }

// Role returns the agent's role definition.
func (s *Session) Role() agent.Role { return s.cfg.Role }

// Config returns the configuration the session was built from.
func (s *Session) Config() Config { return s.cfg }

// MemoryLen returns the current knowledge-memory size.
func (s *Session) MemoryLen() int { return s.agent.Memory.Len() }

// Sources returns the distinct knowledge sources, sorted.
func (s *Session) Sources() []string { return s.agent.Memory.Sources() }

// Status reports the session's current state without blocking on a
// running operation.
func (s *Session) Status() Status {
	s.st.Lock()
	defer s.st.Unlock()
	return Status{
		ID:          s.id,
		Role:        s.cfg.Role.Name,
		Seed:        s.cfg.Seed,
		Trained:     s.trained,
		Busy:        len(s.ops) == 1,
		MemoryItems: s.agent.Memory.Len(),
		TraceEvents: s.events.last(),
		Created:     s.created,
		LastUsed:    s.lastUsed,
	}
}

// Tee mirrors every step event the session's agent publishes into obs,
// in addition to the session's own SSE event buffer. The incident
// pipeline uses it to land each investigation step in the incident's
// event log as it happens. Attaching waits for the session to go idle
// (honoring ctx) so the observer never changes mid-operation; events
// stay strictly ordered because the agent emits them from within the
// serialized operation.
func (s *Session) Tee(ctx context.Context, obs stream.Observer) error {
	if err := s.acquire(ctx); err != nil {
		return err
	}
	defer s.release()
	s.agent.Observer = stream.Tee(s.agent.Observer, obs)
	return nil
}

// Train runs the role goals through the autonomous loop (§3.2 steps
// 1-3), populating the knowledge memory.
func (s *Session) Train(ctx context.Context) (agent.TrainReport, error) {
	if err := s.acquire(ctx); err != nil {
		return agent.TrainReport{}, err
	}
	defer s.release()
	s.emit(stream.Event{Type: stream.EventOp, Text: "train"})
	rep, err := s.agent.Train(ctx)
	s.emitOutcome(err, stream.Event{Type: stream.EventDone, Text: "train"})
	if err != nil {
		return rep, err
	}
	// Training sealed the learned knowledge into a segment; swap it for
	// the process-wide canonical copy so every session trained over the
	// same (world, role, seed) shares one resident segment.
	s.agent.Memory.InternSegments(evalcache.InternSegment)
	s.st.Lock()
	s.trained = true
	s.st.Unlock()
	return rep, nil
}

// Ask answers a question from current knowledge only (no self-learning).
func (s *Session) Ask(ctx context.Context, question string) (agent.Answer, error) {
	if err := s.acquire(ctx); err != nil {
		return agent.Answer{}, err
	}
	defer s.release()
	s.emit(stream.Event{Type: stream.EventOp, Text: "ask", Arg: question})
	ans, err := s.agent.Ask(ctx, question)
	s.emitOutcome(err, stream.Event{Type: stream.EventAnswer, Text: ans.Text, Confidence: ans.Confidence, Verdict: ans.Verdict})
	return ans, err
}

// Investigate runs the knowledge testing + self-learning loop (§3.2 step
// 4) on the question.
func (s *Session) Investigate(ctx context.Context, question string) (agent.Investigation, error) {
	if err := s.acquire(ctx); err != nil {
		return agent.Investigation{}, err
	}
	defer s.release()
	s.emit(stream.Event{Type: stream.EventOp, Text: "investigate", Arg: question})
	inv, err := s.agent.Investigate(ctx, question)
	s.emitOutcome(err, stream.Event{Type: stream.EventAnswer, Text: inv.Final.Text, Confidence: inv.Final.Confidence, Verdict: inv.Final.Verdict})
	return inv, err
}

// SelfLearn runs the given queries against the web and memorizes what it
// finds, returning the number of new memory items.
func (s *Session) SelfLearn(ctx context.Context, queries []string) (int, error) {
	if err := s.acquire(ctx); err != nil {
		return 0, err
	}
	defer s.release()
	return s.agent.SelfLearn(ctx, queries)
}

// Plan asks the agent for a response plan from current knowledge. A
// non-empty scenario focuses knowledge retrieval.
func (s *Session) Plan(ctx context.Context, scenario string) ([]agent.PlanItem, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	if scenario == "" {
		return s.agent.Plan(ctx)
	}
	return s.agent.PlanFor(ctx, scenario)
}

// GenerateQuestions asks the agent to propose research questions,
// optionally filtered by topic.
func (s *Session) GenerateQuestions(ctx context.Context, topic string) ([]string, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	return s.agent.GenerateQuestions(ctx, topic)
}

// Report investigates the question and builds the written report.
func (s *Session) Report(ctx context.Context, question string) (report.Report, agent.Investigation, error) {
	if err := s.acquire(ctx); err != nil {
		return report.Report{}, agent.Investigation{}, err
	}
	defer s.release()
	s.emit(stream.Event{Type: stream.EventOp, Text: "report", Arg: question})
	inv, err := s.agent.Investigate(ctx, question)
	s.emitOutcome(err, stream.Event{Type: stream.EventAnswer, Text: inv.Final.Text, Confidence: inv.Final.Confidence, Verdict: inv.Final.Verdict})
	if err != nil {
		return report.Report{}, inv, err
	}
	return report.Build(s.agent, inv, s.events.last()), inv, nil
}

// LoadMemory replaces the knowledge memory from a knowledge.json file.
func (s *Session) LoadMemory(ctx context.Context, path string) error {
	if err := s.acquire(ctx); err != nil {
		return err
	}
	defer s.release()
	return s.agent.Memory.Load(path)
}

// SaveMemory writes the knowledge memory to a knowledge.json file.
func (s *Session) SaveMemory(ctx context.Context, path string) error {
	if err := s.acquire(ctx); err != nil {
		return err
	}
	defer s.release()
	return s.agent.Memory.Save(path)
}

// snapshotLocked captures the session's full restorable state. The
// caller must hold the operation lock.
func (s *Session) snapshotLocked() Snapshot {
	s.st.Lock()
	trained := s.trained
	s.st.Unlock()
	segs, delta := s.agent.Memory.Parts()
	log, first := s.events.snapshot()
	snap := Snapshot{
		ID:       s.id,
		Schema:   snapshotSchema,
		Config:   s.cfg,
		Trained:  trained,
		Created:  s.created,
		Saved:    s.now(),
		Delta:    delta,
		LogFirst: first,
		LogLen:   log.len(),
		log:      log,
		segs:     segs,
	}
	for _, seg := range segs {
		snap.Segments = append(snap.Segments, SegmentRef{
			ID:          seg.ID(),
			Fingerprint: seg.Fingerprint(),
			Items:       seg.Len(),
		})
	}
	return snap
}

// markClosed flips the session to closed; in-flight operations finish,
// later acquires fail with ErrClosed. Closing the event buffer gives
// every SSE subscriber a clean end-of-stream instead of a hang.
// markClosed is idempotent: eviction and explicit delete can race to
// close the same session, and the segment references must be dropped
// exactly once.
func (s *Session) markClosed() {
	s.st.Lock()
	if s.closed {
		s.st.Unlock()
		return
	}
	s.closed = true
	s.st.Unlock()
	s.agent.Memory.ReleaseSegments()
	s.events.close()
}

// lru returns the session's last-use sequence number for eviction order.
func (s *Session) lru() int64 {
	s.st.Lock()
	defer s.st.Unlock()
	return s.useSeq
}
