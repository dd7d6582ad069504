package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/stream"
)

// eventBufferCap bounds how many recent events a session retains. A
// buffer that grows past it drops all but its newest half, so it holds
// between eventBufferCap/2 and eventBufferCap events once it has filled
// — a subscriber that resumes from before the retained window simply
// starts at the oldest event still held, the standard SSE contract.
const eventBufferCap = 512

// sseHeartbeat is how often an idle event stream emits a comment line so
// intermediaries do not reap the connection. A variable so tests can
// shorten it.
var sseHeartbeat = 15 * time.Second

// eventBuffer is a session's one log: the bounded, broadcast-on-append
// record of every step, served live as SSE, as the audit trail at
// GET /trace, and persisted in the session's snapshot. Producers publish
// through it (assigning monotonically increasing IDs that continue
// across snapshot and restore), subscribers poll readAfter and park on
// the change channel — no per-subscriber goroutines or queues exist, so
// an arbitrary number of slow or abandoned subscribers can never block
// a producer or leak.
type eventBuffer struct {
	mu     sync.Mutex
	log    eventLog
	next   int64 // next ID to assign
	closed bool
	change chan struct{} // closed and replaced on every publish/close
}

// eventLog is the retained events of a buffer or a snapshot. A restored
// session's oldest events stay raw: the compact JSON lines read from
// its snapshot file, undecoded until a history read needs them, and
// written back unchanged by the next snapshot. Decoded events follow
// them. IDs run contiguously through both. raw is never modified in
// place, so copies of a log share it.
type eventLog struct {
	raw   []byte // rawN lines, one stream.Event each
	rawN  int
	first int64          // ID of the first raw line
	src   string         // the snapshot file raw came from, named by decode errors
	evs   []stream.Event // evs[i].ID are contiguous, after the raw lines
}

// len returns how many events the log holds.
func (l *eventLog) len() int { return l.rawN + len(l.evs) }

// decode turns the raw lines into events ahead of evs. A line that does
// not decode, or decodes to another ID than its place in the log, fails
// the call and leaves the log as it was.
func (l *eventLog) decode() error {
	evs := make([]stream.Event, l.rawN, l.rawN+len(l.evs))
	raw := l.raw
	for i := range evs {
		j := bytes.IndexByte(raw, '\n')
		err := json.Unmarshal(raw[:j], &evs[i])
		if want := l.first + int64(i); err == nil && evs[i].ID != want {
			err = fmt.Errorf("ID %d, want %d", evs[i].ID, want)
		}
		if err != nil {
			return fmt.Errorf("session: snapshot %s: event log line %d: %w", l.src, i+1, err)
		}
		raw = raw[j+1:]
	}
	l.evs = append(evs, l.evs...)
	l.raw, l.rawN = nil, 0
	return nil
}

// drop removes the oldest n events: raw lines first, cut at their
// newlines without decoding them, then decoded events.
func (l *eventLog) drop(n int) {
	if n < l.rawN {
		raw := l.raw
		for range n {
			raw = raw[bytes.IndexByte(raw, '\n')+1:]
		}
		l.raw, l.rawN, l.first = raw, l.rawN-n, l.first+int64(n)
		return
	}
	n -= l.rawN
	l.raw, l.rawN = nil, 0
	// One copy instead of shifting by one on every publish past capacity.
	l.evs = append(l.evs[:0:0], l.evs[n:]...)
}

// newEventBuffer returns a buffer holding log, the retained events of a
// restored session (empty for a new one); IDs continue after its last.
// The caller has checked log: a decoded one with checkLog, a raw one
// with scanLog.
func newEventBuffer(log eventLog) *eventBuffer {
	b := &eventBuffer{log: log, next: 1, change: make(chan struct{})}
	if n := len(log.evs); n > 0 {
		b.next = log.evs[n-1].ID + 1
	} else if log.rawN > 0 {
		b.next = log.first + int64(log.rawN)
	}
	return b
}

// checkLog reports why log cannot be a restored buffer's contents: more
// than eventBufferCap events, or IDs that are not contiguous from 1 or
// above (with room for the next one).
func checkLog(log []stream.Event) error {
	if len(log) > eventBufferCap {
		return fmt.Errorf("%d events, more than %d", len(log), eventBufferCap)
	}
	for i, e := range log {
		if e.ID < 1 || e.ID == math.MaxInt64 || (i > 0 && e.ID != log[i-1].ID+1) {
			return fmt.Errorf("event %d has ID %d, want IDs contiguous from 1 or above", i, e.ID)
		}
	}
	return nil
}

// scanLog checks the event log of a schema-4 file without decoding it.
// data is what follows the head: the rest of the head's line, then n
// lines whose IDs run from first, each ending in a newline and opening
// with {"id":N, where N is its ID. It keeps checkLog's guarantees for
// the log that a history read decodes later, and returns the lines.
func scanLog(data []byte, first int64, n int) ([]byte, error) {
	switch {
	case n < 0 || n > eventBufferCap:
		return nil, fmt.Errorf("log_len %d, want 0 to %d", n, eventBufferCap)
	case first < 1 || first > math.MaxInt64-int64(n):
		return nil, fmt.Errorf("log_first %d, want IDs from 1 or above", first)
	}
	j := bytes.IndexByte(data, '\n')
	if j < 0 || len(bytes.TrimSpace(data[:j])) > 0 {
		return nil, errors.New("the head does not end its line")
	}
	lines := data[j+1:]
	rest := lines
	prefix := make([]byte, 0, 32)
	for i := range n {
		j := bytes.IndexByte(rest, '\n')
		switch {
		case j < 0 && len(rest) == 0:
			return nil, fmt.Errorf("%d lines, want log_len %d", i, n)
		case j < 0:
			return nil, fmt.Errorf("line %d has no newline", i+1)
		}
		prefix = append(strconv.AppendInt(append(prefix[:0], `{"id":`...), first+int64(i), 10), ',')
		if !bytes.HasPrefix(rest[:j], prefix) {
			return nil, fmt.Errorf("line %d does not open with %s", i+1, prefix)
		}
		rest = rest[j+1:]
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("more lines than log_len %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	return lines, nil
}

// publish appends e with the next ID and wakes every waiter.
func (b *eventBuffer) publish(e stream.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	e.ID = b.next
	b.next++
	b.log.evs = append(b.log.evs, e)
	if n := b.log.len(); n > eventBufferCap {
		b.log.drop(n - eventBufferCap/2)
	}
	close(b.change)
	b.change = make(chan struct{})
}

// close ends the stream: subscribers drain what is buffered and then see
// closed. Idempotent.
func (b *eventBuffer) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	close(b.change)
	b.change = make(chan struct{})
}

// last returns the highest assigned event ID (0 when none).
func (b *eventBuffer) last() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next - 1
}

// readAfter returns every buffered event with ID > after, whether the
// buffer is closed, and a channel that is closed on the next publish or
// close. An `after` beyond the live tail is clamped to the tail (a
// resume token from a previous incarnation of the session). A cursor
// before the last raw line decodes the raw lines, once; a line that
// does not decode fails the read and stays raw.
func (b *eventBuffer) readAfter(after int64) ([]stream.Event, bool, <-chan struct{}, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if after >= b.next {
		after = b.next - 1
	}
	if b.log.rawN > 0 && after < b.log.first+int64(b.log.rawN)-1 {
		if err := b.log.decode(); err != nil {
			return nil, b.closed, b.change, err
		}
	}
	var out []stream.Event
	if n := len(b.log.evs); n > 0 {
		first := b.log.evs[0].ID
		idx := 0
		if after >= first {
			idx = int(after - first + 1)
		}
		if idx < n {
			out = append([]stream.Event(nil), b.log.evs[idx:]...)
		}
	}
	return out, b.closed, b.change, nil
}

// snapshot returns a copy of the retained log that later publishes
// cannot reach — the raw lines shared, the decoded events copied — and
// the ID of its oldest event (the next ID when it is empty).
func (b *eventBuffer) snapshot() (eventLog, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	log := b.log
	log.evs = append([]stream.Event(nil), log.evs...)
	return log, b.next - int64(log.len())
}

// Events returns the session's buffered events with ID > after, whether
// the event stream is closed for good (the session was evicted or
// deleted), and a channel closed on the next publish — the programmatic
// subscription API the SSE handler and the benchmarks are built on. It
// fails, naming the snapshot file, when a restored event it must return
// does not decode.
func (s *Session) Events(after int64) ([]stream.Event, bool, <-chan struct{}, error) {
	return s.events.readAfter(after)
}

// LastEventID returns the ID of the most recent event (0 when none) —
// the resume token a subscriber passes to Events to receive only what
// happens next.
func (s *Session) LastEventID() int64 { return s.events.last() }

// emit publishes a session-level event (operation boundaries and
// terminal answers/errors) into the buffer.
func (s *Session) emit(e stream.Event) { s.events.publish(e) }

// emitOutcome publishes the terminal event for an operation: an error
// event when err is set (including context cancellation mid-operation),
// otherwise the given success event.
func (s *Session) emitOutcome(err error, ok stream.Event) {
	if err != nil {
		s.emit(stream.Event{Type: stream.EventError, Err: err.Error(), Terminal: true})
		return
	}
	ok.Terminal = true
	s.emit(ok)
}

// handleEvents serves GET /v1/sessions/{id}/events as Server-Sent
// Events. The stream replays buffered events after the resume point
// (the Last-Event-ID header or ?after=N; default: only new events),
// then follows the session live, emitting heartbeat comments while
// idle. It ends when a terminal event is sent, the session is evicted
// or deleted, or the client goes away. ?once=1 drains the current
// buffer and returns without following — the replay/debugging mode.
func handleEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	s, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErrorCode(w, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	after := s.LastEventID()
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			after = n
		}
	} else if v := r.URL.Query().Get("after"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			after = n
		}
	}
	// A resume token from beyond the live tail (a previous incarnation
	// of the session) clamps to the tail once, so new events still flow.
	if last := s.LastEventID(); after > last {
		after = last
	}
	once := r.URL.Query().Get("once") == "1"
	// The first read is the only one that can reach the raw lines of a
	// restored log, so a log that does not decode is answered before
	// the stream starts; later reads only move the cursor forward.
	evs, closed, change, err := s.Events(after)
	if err != nil {
		writeError(w, err)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		for _, e := range evs {
			after = e.ID
			if err := writeSSE(w, e); err != nil {
				return
			}
			if e.Terminal && !once {
				fl.Flush()
				return
			}
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if once {
			return
		}
		if closed {
			// The session is gone (evicted or deleted): tell the
			// subscriber explicitly, then end cleanly.
			fmt.Fprintf(w, "event: close\ndata: {}\n\n")
			fl.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-change:
		case <-hb.C:
			fmt.Fprintf(w, ": hb\n\n")
			fl.Flush()
		}
		if evs, closed, change, err = s.Events(after); err != nil {
			return
		}
	}
}

// writeSSE writes one event in SSE wire format: id, event type, and the
// JSON payload on the data line. Event payloads are single-line JSON, so
// one data field always suffices.
func writeSSE(w http.ResponseWriter, e stream.Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, data)
	return err
}
