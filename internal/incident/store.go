package incident

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/stream"
)

// StoreConfig configures a Store.
type StoreConfig struct {
	// Clock stamps filings, transitions and event-log entries. Nil
	// means time.Now; tests inject a fixed clock so a drained batch is
	// byte-identical run to run.
	Clock func() time.Time
	// Path, when set, persists the queue as an append-only JSON-lines
	// journal: File, every terminal transition and every reopen append
	// one line holding the changed incident with its event log. Load
	// replays the journal (the last line per ID wins), then compacts it
	// to one line per incident with a temp+rename. Non-terminal statuses
	// load back as open — a claim held by a dead process must not strand
	// its incident. A missing directory is created. One process owns the
	// journal: another store's compaction would replace the file under
	// this store's append handle.
	Path string
}

// Stats is the store half of the `incidents` stats block: queue gauges
// and lifecycle totals. The processor contributes the leader/follower
// counters next to it.
type Stats struct {
	Filed         int64 `json:"filed"`
	QueueDepth    int   `json:"queue_depth"` // currently open
	Claimed       int   `json:"claimed"`     // currently claimed, not yet investigating
	Investigating int   `json:"investigating"`
	Resolved      int64 `json:"resolved"`
	Escalated     int64 `json:"escalated"`
	Reopened      int64 `json:"reopened"`
	// PersistErrors counts journal writes that failed. The transition
	// still succeeds in memory; the next persist rewrites the whole
	// journal instead of appending to a possibly torn one.
	PersistErrors int64 `json:"persist_errors"`
}

// Store owns the incident table: filings, atomic lifecycle
// transitions (compare-and-swap on status, so two concurrent
// processors can never both claim one incident), the append-only
// per-incident event logs, and optional journal persistence.
type Store struct {
	mu        sync.Mutex
	cfg       StoreConfig
	seq       int64
	incidents map[string]*Incident
	order     []string // ascending incident IDs, filing order
	filed     int64
	reopened  int64
	onFile    func()

	// journal is the append handle on cfg.Path; nil until the first
	// compaction (Load, the first persist, or the persist after an
	// error), which rewrites the whole file and reopens it.
	journal       *os.File
	dirty         []string // terminal incidents whose logs grew since their last line
	persistErrors int64
}

// NewStore returns an empty store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Store{cfg: cfg, incidents: map[string]*Incident{}}
}

// OnFile registers a callback invoked (outside the store lock) after
// every successful File — the processor's wake-up kick.
func (st *Store) OnFile(fn func()) {
	st.mu.Lock()
	st.onFile = fn
	st.mu.Unlock()
}

// File validates and opens a new incident, assigning the next ID in
// filing order ("inc-000001", ...). A filing that carries its own ID
// keeps it — the store's sequence is not advanced — and filing a
// duplicate ID is an error.
func (st *Store) File(f Filing) (Incident, error) {
	f, err := f.validate()
	if err != nil {
		return Incident{}, err
	}
	st.mu.Lock()
	id := f.ID
	if id == "" {
		// Skip sequence IDs already taken: a journal written by hand (or
		// damaged) can hold IDs ahead of its recorded sequence.
		for taken := true; taken; _, taken = st.incidents[id] {
			st.seq++
			id = fmt.Sprintf("inc-%06d", st.seq)
		}
	} else if _, taken := st.incidents[id]; taken {
		st.mu.Unlock()
		return Incident{}, fmt.Errorf("%w: %s", ErrExists, id)
	}
	st.filed++
	now := st.cfg.Clock()
	inc := &Incident{
		ID:       id,
		Type:     f.Type,
		Severity: f.Severity,
		Title:    f.Title,
		Question: f.Question,
		Source:   f.Source,
		Detail:   f.Detail,
		Status:   StatusOpen,
		Created:  now,
		Updated:  now,
	}
	st.appendEventLocked(inc, EvFiled, fmt.Sprintf("%s incident filed via %s", f.Severity, f.Source))
	st.incidents[inc.ID] = inc
	st.order = append(st.order, inc.ID)
	kick := st.onFile
	st.persistLocked(inc)
	out := inc.copy()
	st.mu.Unlock()
	if kick != nil {
		kick()
	}
	return out, nil
}

// Get returns a deep copy of the incident, including its event log.
func (st *Store) Get(id string) (Incident, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok {
		return Incident{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return inc.copy(), nil
}

// List returns summaries (no event logs) of every incident in
// ascending ID order, optionally filtered by status ("" = all).
func (st *Store) List(status Status) []Incident {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Incident, 0, len(st.order))
	for _, id := range st.order {
		inc := st.incidents[id]
		if status != "" && inc.Status != status {
			continue
		}
		out = append(out, inc.summary())
	}
	return out
}

// OpenQueue returns up to limit open incidents in processing order:
// severity first (critical before warning before info), then filing
// order. The order is deterministic, so every worker count sees the
// same batch boundaries.
func (st *Store) OpenQueue(limit int) []Incident {
	st.mu.Lock()
	var open []*Incident
	for _, id := range st.order {
		if inc := st.incidents[id]; inc.Status == StatusOpen {
			open = append(open, inc)
		}
	}
	sort.SliceStable(open, func(i, j int) bool {
		ri, rj := sevRank(open[i].Severity), sevRank(open[j].Severity)
		if ri != rj {
			return ri < rj
		}
		return open[i].ID < open[j].ID
	})
	if limit > 0 && len(open) > limit {
		open = open[:limit]
	}
	out := make([]Incident, len(open))
	for i, inc := range open {
		out[i] = inc.summary()
	}
	st.mu.Unlock()
	return out
}

// Claim atomically moves an open incident to claimed. It returns false
// when the incident is unknown or not open — the compare-and-swap that
// keeps two processors from investigating the same incident.
func (st *Store) Claim(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok || inc.Status != StatusOpen {
		return false
	}
	inc.Status = StatusClaimed
	st.appendEventLocked(inc, EvClaimed, "")
	return true
}

// Start moves a claimed incident to investigating, recording the
// session the investigation runs on and the group leader.
func (st *Store) Start(id, session, leader string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if inc.Status != StatusClaimed {
		return fmt.Errorf("%w: %s is %s, want claimed", ErrInvalidState, id, inc.Status)
	}
	inc.Status = StatusInvestigating
	inc.Session = session
	inc.Leader = leader
	what := "leading the investigation"
	if leader != id {
		what = "following leader " + leader
	}
	st.appendEventLocked(inc, EvInvestigating, fmt.Sprintf("%s on session %s", what, session))
	return nil
}

// SetHint records the leader's resolution hint on a follower.
func (st *Store) SetHint(id, hint string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if inc, ok := st.incidents[id]; ok {
		inc.Hint = hint
		st.appendEventLocked(inc, EvHint, hint)
	}
}

// Release reopens a claimed or investigating incident — the cancel
// path: a processor losing its context mid-investigation puts the
// incident back where another (or a later) processor can claim it.
// Terminal incidents are left alone.
func (st *Store) Release(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok || inc.Status == StatusOpen || inc.Status.Terminal() {
		return
	}
	inc.Status = StatusOpen
	inc.Session = ""
	inc.Leader = ""
	st.reopened++
	st.appendEventLocked(inc, EvReopened, "investigation interrupted; incident re-queued")
	st.persistLocked(inc)
}

// Close finishes an investigating incident with the processor's
// outcome. The compare-and-swap against StatusInvestigating means a
// manual resolve/escalate that raced ahead wins and the processor's
// late outcome is dropped.
func (st *Store) Close(id string, out Outcome) error {
	if out.Status != StatusResolved && out.Status != StatusEscalated {
		return fmt.Errorf("%w: close to %s", ErrInvalidState, out.Status)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if inc.Status != StatusInvestigating {
		return fmt.Errorf("%w: %s is %s, want investigating", ErrInvalidState, id, inc.Status)
	}
	st.closeLocked(inc, out)
	return nil
}

// Transition applies a manual resolve or escalate from the API: legal
// from any non-terminal state, illegal (ErrInvalidState → 409) once
// the incident is resolved or escalated.
func (st *Store) Transition(id string, to Status, note string) (Incident, error) {
	if !to.Terminal() {
		return Incident{}, fmt.Errorf("%w: manual transition to %s", ErrInvalidState, to)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.incidents[id]
	if !ok {
		return Incident{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if inc.Status.Terminal() {
		return Incident{}, fmt.Errorf("%w: %s is already %s", ErrInvalidState, id, inc.Status)
	}
	out := Outcome{Status: to, Note: note}
	if to == StatusResolved {
		out.Resolution = note
		out.Note = ""
	}
	st.closeLocked(inc, out)
	return inc.copy(), nil
}

// closeLocked applies a terminal outcome under the store lock.
func (st *Store) closeLocked(inc *Incident, out Outcome) {
	inc.Status = out.Status
	inc.Resolution = out.Resolution
	inc.Confidence = out.Confidence
	inc.Verdict = out.Verdict
	inc.Turns = out.Turns
	if out.Hint != "" {
		inc.Hint = out.Hint
	}
	kind, text := EvResolved, out.Resolution
	if out.Status == StatusEscalated {
		kind, text = EvEscalated, out.Note
	}
	st.appendEventLocked(inc, kind, text)
	st.persistLocked(inc)
}

// Observer returns a stream.Observer that appends every session step
// event to the incident's log — the bridge the processor tees a
// session's observer into, so each investigation step lands in the
// incident record as it happens.
func (st *Store) Observer(id string) stream.Observer {
	return func(e stream.Event) {
		st.AppendEvent(id, e.Type, describe(e))
	}
}

// AppendEvent appends one event to the incident's log. Unknown IDs are
// ignored (the incident may have been superseded).
func (st *Store) AppendEvent(id, kind, text string) {
	st.mu.Lock()
	if inc, ok := st.incidents[id]; ok {
		st.appendEventLocked(inc, kind, text)
	}
	st.mu.Unlock()
}

func (st *Store) appendEventLocked(inc *Incident, kind, text string) {
	// An incident resolved or escalated by hand mid-investigation keeps
	// receiving its session's events. They ride along with the next
	// persist, so the journal's copy of a terminal record catches up.
	if inc.Status.Terminal() && st.cfg.Path != "" && !slices.Contains(st.dirty, inc.ID) {
		st.dirty = append(st.dirty, inc.ID)
	}
	now := st.cfg.Clock()
	inc.Updated = now
	inc.Events = append(inc.Events, Event{
		Seq:  int64(len(inc.Events) + 1),
		Time: now,
		Kind: kind,
		Text: text,
	})
}

// describe renders a bridged stream event as one event-log line.
func describe(e stream.Event) string {
	switch e.Type {
	case stream.EventOp, stream.EventDone:
		return e.Text
	case stream.EventGoal:
		return e.Goal
	case stream.EventThoughts, stream.EventPartial:
		return e.Text
	case stream.EventCommand:
		if e.Arg != "" {
			return e.Command + " " + e.Arg
		}
		return e.Command
	case stream.EventObservation:
		return e.Text
	case stream.EventRound:
		return fmt.Sprintf("round %d: confidence %d, verdict %s", e.Round, e.Confidence, e.Verdict)
	case stream.EventLearn:
		return fmt.Sprintf("round %d: %d queries, %d new items", e.Round, len(e.Queries), e.NewItems)
	case stream.EventSearch:
		if e.Err != "" {
			return fmt.Sprintf("search %s: %s", e.Query, e.Err)
		}
		return fmt.Sprintf("search %s -> %d results", e.Query, e.Results)
	case stream.EventFetch:
		if e.Err != "" {
			return fmt.Sprintf("fetch %s (%s)", e.URL, e.Err)
		}
		return fmt.Sprintf("fetch %s (memorized)", e.URL)
	case stream.EventAnswer:
		return fmt.Sprintf("confidence %d: %s", e.Confidence, e.Text)
	case stream.EventError:
		return e.Err
	}
	return e.Text
}

// Stats returns the queue gauges and lifecycle totals.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{Filed: st.filed, Reopened: st.reopened, PersistErrors: st.persistErrors}
	for _, inc := range st.incidents {
		switch inc.Status {
		case StatusOpen:
			s.QueueDepth++
		case StatusClaimed:
			s.Claimed++
		case StatusInvestigating:
			s.Investigating++
		case StatusResolved:
			s.Resolved++
		case StatusEscalated:
			s.Escalated++
		}
	}
	return s
}

// journalRecord is one line of the journal: the store counters as of
// the write and the full record of one incident that changed.
type journalRecord struct {
	Seq      int64     `json:"seq"`
	Filed    int64     `json:"filed"`
	Reopened int64     `json:"reopened"`
	Incident *Incident `json:"incident"`
}

// encodeLocked writes one journal line per named incident to w.
func (st *Store) encodeLocked(w io.Writer, ids []string) error {
	enc := json.NewEncoder(w)
	for _, id := range ids {
		rec := journalRecord{Seq: st.seq, Filed: st.filed, Reopened: st.reopened, Incident: st.incidents[id]}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// persistLocked appends the changed incident, plus any terminal
// incident whose log grew since its last line, to the journal in one
// write. Claims are deliberately not persisted on their own — a claim
// is transient state that reverts to open on restart anyway.
func (st *Store) persistLocked(inc *Incident) {
	if st.cfg.Path == "" {
		return
	}
	if !slices.Contains(st.dirty, inc.ID) {
		st.dirty = append(st.dirty, inc.ID)
	}
	if st.journal == nil {
		st.compactLocked()
		return
	}
	var buf bytes.Buffer
	err := st.encodeLocked(&buf, st.dirty)
	st.dirty = st.dirty[:0]
	if err == nil {
		_, err = st.journal.Write(buf.Bytes())
	}
	if err != nil {
		// The journal may now end in a torn line. Drop the handle so the
		// next persist rewrites the whole store instead of appending.
		st.persistErrors++
		st.journal.Close()
		st.journal = nil
	}
}

// compactLocked rewrites the journal as one line per incident in filing
// order (temp+rename) and opens a fresh append handle on the new file.
// On failure the journal stays closed, so the next persist retries.
func (st *Store) compactLocked() {
	st.dirty = st.dirty[:0]
	if st.journal != nil {
		st.journal.Close()
		st.journal = nil
	}
	if err := st.rewriteLocked(); err != nil {
		st.persistErrors++
	}
}

// rewriteLocked writes every incident to a temp file, renames it over
// the journal (persist.WriteFile) and opens the append handle on the
// result. It creates the journal's directory first: websimd points the
// journal at the session snapshot directory, which nothing else creates
// until a session is snapshotted.
func (st *Store) rewriteLocked() error {
	if err := os.MkdirAll(filepath.Dir(st.cfg.Path), 0o755); err != nil {
		return err
	}
	if err := persist.WriteFile(st.cfg.Path, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		if err := st.encodeLocked(w, st.order); err != nil {
			return err
		}
		return w.Flush()
	}); err != nil {
		return err
	}
	var err error
	st.journal, err = os.OpenFile(st.cfg.Path, os.O_WRONLY|os.O_APPEND, 0)
	return err
}

// Load restores the queue from the journal and compacts it. The last
// line per ID wins, and filing order is the order in which IDs first
// appear. Non-terminal incidents come back open, so no incident is
// ever stranded by a dead claimant. A missing file is an empty queue,
// not an error. A final line without its newline is a write torn by a
// crash and is dropped, leaving the state before that transition; a
// bad line anywhere else fails the load. A failed compaction counts as
// a persist error, and the next persist retries it.
func (st *Store) Load() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cfg.Path == "" {
		return nil
	}
	data, err := os.ReadFile(st.cfg.Path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	incidents := map[string]*Incident{}
	var order []string
	var last journalRecord
	for n := 1; len(data) > 0; n++ {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("incident: journal %s line %d: %w", st.cfg.Path, n, err)
		}
		inc := rec.Incident
		if inc == nil || inc.ID == "" {
			return fmt.Errorf("incident: journal %s line %d: no incident", st.cfg.Path, n)
		}
		if _, seen := incidents[inc.ID]; !seen {
			order = append(order, inc.ID)
		}
		incidents[inc.ID] = inc
		last = rec
	}
	for _, inc := range incidents {
		if !inc.Status.Terminal() && inc.Status != StatusOpen {
			inc.Status = StatusOpen
			inc.Session = ""
			inc.Leader = ""
		}
	}
	st.seq, st.filed, st.reopened = last.Seq, last.Filed, last.Reopened
	st.incidents, st.order = incidents, order
	st.compactLocked()
	return nil
}

// copy deep-copies the incident, including the event log.
func (inc *Incident) copy() Incident {
	out := *inc
	out.Events = append([]Event(nil), inc.Events...)
	return out
}

// summary copies the incident without its event log.
func (inc *Incident) summary() Incident {
	out := *inc
	out.Events = nil
	return out
}
