package session

import (
	"encoding/json"
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
	evs    []stream.Event // evs[i].ID are contiguous
	next   int64          // next ID to assign
	closed bool
	change chan struct{} // closed and replaced on every publish/close
}

// newEventBuffer returns a buffer holding log, the retained events of a
// restored session (nil for a new one); IDs continue after its last.
// The caller has checked log with checkLog.
func newEventBuffer(log []stream.Event) *eventBuffer {
	b := &eventBuffer{evs: log, next: 1, change: make(chan struct{})}
	if n := len(log); n > 0 {
		b.next = log[n-1].ID + 1
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

// publish appends e with the next ID and wakes every waiter.
func (b *eventBuffer) publish(e stream.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	e.ID = b.next
	b.next++
	b.evs = append(b.evs, e)
	if len(b.evs) > eventBufferCap {
		// Drop the oldest half in one copy instead of shifting by one on
		// every publish past capacity.
		keep := eventBufferCap / 2
		b.evs = append(b.evs[:0:0], b.evs[len(b.evs)-keep:]...)
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
// resume token from a previous incarnation of the session).
func (b *eventBuffer) readAfter(after int64) ([]stream.Event, bool, <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if after >= b.next {
		after = b.next - 1
	}
	var out []stream.Event
	if n := len(b.evs); n > 0 {
		first := b.evs[0].ID
		idx := 0
		if after >= first {
			idx = int(after - first + 1)
		}
		if idx < n {
			out = append([]stream.Event(nil), b.evs[idx:]...)
		}
	}
	return out, b.closed, b.change
}

// Events returns the session's buffered events with ID > after, whether
// the event stream is closed for good (the session was evicted or
// deleted), and a channel closed on the next publish — the programmatic
// subscription API the SSE handler and the benchmarks are built on.
func (s *Session) Events(after int64) ([]stream.Event, bool, <-chan struct{}) {
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

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		evs, closed, change := s.Events(after)
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
