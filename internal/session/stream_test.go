package session

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
)

// sseFrame is one parsed SSE frame: comments arrive with name "comment".
type sseFrame struct {
	id   int64
	name string
	data string
}

// parseSSE reads SSE frames from rc into out until EOF, then closes out.
func parseSSE(rc io.Reader, out chan<- sseFrame) {
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var f sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if f.name != "" || f.data != "" {
				out <- f
			}
			f = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			f.id, _ = strconv.ParseInt(line[len("id: "):], 10, 64)
		case strings.HasPrefix(line, "event: "):
			f.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			f.data = line[len("data: "):]
		case strings.HasPrefix(line, ":"):
			out <- sseFrame{name: "comment", data: line}
		}
	}
	close(out)
}

// openSSE subscribes to a session's event stream and returns the frame
// channel (closed at EOF) plus a cancel that drops the connection.
func openSSE(t *testing.T, url string, hdr map[string]string) (<-chan sseFrame, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe %s: %d %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		cancel()
		t.Fatalf("content type %q", ct)
	}
	out := make(chan sseFrame, 256)
	go func() {
		defer resp.Body.Close()
		parseSSE(resp.Body, out)
	}()
	t.Cleanup(cancel)
	return out, cancel
}

// collectSSE drains frames until the channel closes (stream EOF) or the
// deadline passes.
func collectSSE(t *testing.T, ch <-chan sseFrame, within time.Duration) []sseFrame {
	t.Helper()
	var got []sseFrame
	deadline := time.After(within)
	for {
		select {
		case f, ok := <-ch:
			if !ok {
				return got
			}
			got = append(got, f)
		case <-deadline:
			t.Fatalf("stream did not end within %v; got %d frames: %+v", within, len(got), got)
		}
	}
}

func newStreamManager(t *testing.T) *Manager {
	t.Helper()
	m := NewManager(ManagerConfig{Defaults: Config{Seed: 42}})
	t.Cleanup(m.Shutdown)
	return m
}

// TestStreamInvestigateOrdering drives an investigation through the
// programmatic API and asserts the buffered event sequence: the op
// boundary first, at least one round (with a partial answer) before the
// terminal answer, contiguous IDs throughout.
func TestStreamInvestigateOrdering(t *testing.T) {
	m := newStreamManager(t)
	s, err := m.Create("stream", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := s.Investigate(context.Background(), vulnQuestion)
	if err != nil {
		t.Fatal(err)
	}

	evs, closed, _, _ := s.Events(0)
	if closed {
		t.Fatal("event stream closed while session alive")
	}
	if len(evs) < 3 {
		t.Fatalf("want >=3 events (op, round, answer), got %d: %+v", len(evs), evs)
	}
	for i, e := range evs {
		if e.ID != int64(i+1) {
			t.Fatalf("event %d has ID %d, want contiguous from 1", i, e.ID)
		}
	}
	if evs[0].Type != stream.EventOp || evs[0].Text != "investigate" {
		t.Errorf("first event %+v, want op/investigate", evs[0])
	}
	round, partial, answer := -1, -1, -1
	for i, e := range evs {
		switch e.Type {
		case stream.EventRound:
			if round == -1 {
				round = i
			}
		case stream.EventPartial:
			if partial == -1 {
				partial = i
			}
		case stream.EventAnswer:
			answer = i
		}
	}
	if round == -1 || partial == -1 || answer == -1 {
		t.Fatalf("missing event kinds (round=%d partial=%d answer=%d) in %+v", round, partial, answer, evs)
	}
	if round > answer || partial > answer {
		t.Errorf("round (%d) and partial (%d) must precede answer (%d)", round, partial, answer)
	}
	last := evs[len(evs)-1]
	if last.Type != stream.EventAnswer || !last.Terminal {
		t.Errorf("last event %+v, want terminal answer", last)
	}
	if last.Text != inv.Final.Text || last.Confidence != inv.Final.Confidence {
		t.Errorf("terminal answer %+v does not match investigation final %+v", last, inv.Final)
	}
	if s.LastEventID() != last.ID {
		t.Errorf("LastEventID %d, want %d", s.LastEventID(), last.ID)
	}
}

// TestStreamSSELive subscribes over real HTTP before an investigation
// starts and asserts the live stream delivers at least one step event
// before the final answer, then ends at the terminal event.
func TestStreamSSELive(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "live"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	ch, _ := openSSE(t, srv.URL+"/v1/sessions/live/events", nil)
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions/live/learn", QuestionRequest{Question: vulnQuestion}); code != http.StatusOK {
		t.Fatalf("learn: %d %s", code, body)
	}
	frames := collectSSE(t, ch, 30*time.Second)

	var names []string
	for _, f := range frames {
		if f.name != "comment" {
			names = append(names, f.name)
		}
	}
	if len(names) == 0 {
		t.Fatal("no events on the live stream")
	}
	if names[0] != stream.EventOp {
		t.Errorf("first live event %q, want %q (got %v)", names[0], stream.EventOp, names)
	}
	roundAt, answerAt := -1, -1
	for i, n := range names {
		if n == stream.EventRound && roundAt == -1 {
			roundAt = i
		}
		if n == stream.EventAnswer {
			answerAt = i
		}
	}
	if roundAt == -1 || answerAt == -1 || roundAt > answerAt {
		t.Fatalf("want >=1 round event before the answer, got %v", names)
	}
	if names[len(names)-1] != stream.EventAnswer {
		t.Errorf("stream should end at the terminal answer, got %v", names)
	}
}

// TestStreamSSEResume checks the replay/resume modes: ?once=1 drains the
// buffer without following, ?after=N and the Last-Event-ID header skip
// already-seen events, and a resume token beyond the tail is clamped.
func TestStreamSSEResume(t *testing.T) {
	srv, m := newTestServer(t, ManagerConfig{})
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "rs"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	s, err := m.Get("rs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask(context.Background(), vulnQuestion); err != nil {
		t.Fatal(err)
	}
	last := s.LastEventID()
	if last < 2 {
		t.Fatalf("want >=2 buffered events after ask, got %d", last)
	}

	// Full replay.
	ch, _ := openSSE(t, srv.URL+"/v1/sessions/rs/events?once=1&after=0", nil)
	all := collectSSE(t, ch, 10*time.Second)
	if int64(len(all)) != last || all[0].id != 1 {
		t.Fatalf("full replay: %d frames from id %d, want %d from 1", len(all), all[0].id, last)
	}

	// Resume via query parameter.
	ch, _ = openSSE(t, fmt.Sprintf("%s/v1/sessions/rs/events?once=1&after=%d", srv.URL, all[0].id), nil)
	rest := collectSSE(t, ch, 10*time.Second)
	if int64(len(rest)) != last-1 || rest[0].id != 2 {
		t.Fatalf("resume after=1: %d frames from id %d", len(rest), rest[0].id)
	}

	// Resume via the standard header.
	ch, _ = openSSE(t, srv.URL+"/v1/sessions/rs/events?once=1", map[string]string{"Last-Event-ID": "1"})
	rest = collectSSE(t, ch, 10*time.Second)
	if int64(len(rest)) != last-1 || rest[0].id != 2 {
		t.Fatalf("resume Last-Event-ID 1: %d frames from id %d", len(rest), rest[0].id)
	}

	// A token beyond the live tail clamps to it instead of starving.
	ch, _ = openSSE(t, srv.URL+"/v1/sessions/rs/events?once=1&after=999999", nil)
	if over := collectSSE(t, ch, 10*time.Second); len(over) != 0 {
		t.Fatalf("after beyond tail should replay nothing, got %+v", over)
	}
}

// TestStreamCancelMidInvestigation cancels the caller's context as soon
// as the first round event appears; the investigation must fail and the
// stream must end with a terminal error event.
func TestStreamCancelMidInvestigation(t *testing.T) {
	m := newStreamManager(t)
	s, err := m.Create("cancel", Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := s.agent.Observer
	s.agent.Observer = func(e stream.Event) {
		inner(e)
		if e.Type == stream.EventRound {
			cancel()
		}
	}
	if _, err := s.Investigate(ctx, vulnQuestion); err == nil {
		t.Fatal("investigate should fail once its context is cancelled")
	}
	evs, _, _, _ := s.Events(0)
	if len(evs) == 0 {
		t.Fatal("no events buffered")
	}
	last := evs[len(evs)-1]
	if last.Type != stream.EventError || !last.Terminal || last.Err == "" {
		t.Fatalf("last event %+v, want terminal error", last)
	}
	for _, e := range evs[:len(evs)-1] {
		if e.Terminal {
			t.Fatalf("unexpected earlier terminal event %+v", e)
		}
	}
}

// TestStreamSSECloseOnEviction holds a live subscription on a session
// that gets LRU-evicted; the subscriber must receive the explicit close
// event and a clean EOF rather than hanging.
func TestStreamSSECloseOnEviction(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{Capacity: 1})
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "old"}); code != http.StatusCreated {
		t.Fatalf("create old: %d %s", code, body)
	}
	ch, _ := openSSE(t, srv.URL+"/v1/sessions/old/events", nil)

	// Creating a second session in a capacity-1 manager evicts the first.
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "new"}); code != http.StatusCreated {
		t.Fatalf("create new: %d %s", code, body)
	}
	frames := collectSSE(t, ch, 10*time.Second)
	if len(frames) == 0 || frames[len(frames)-1].name != "close" {
		t.Fatalf("want a final close event after eviction, got %+v", frames)
	}
}

// TestStreamSSECloseOnDelete mirrors the eviction test for explicit
// DELETE of a session with a live subscriber.
func TestStreamSSECloseOnDelete(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "del"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	ch, _ := openSSE(t, srv.URL+"/v1/sessions/del/events", nil)
	if code, body := doJSON(t, "DELETE", srv.URL+"/v1/sessions/del", nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	frames := collectSSE(t, ch, 10*time.Second)
	if len(frames) == 0 || frames[len(frames)-1].name != "close" {
		t.Fatalf("want a final close event after delete, got %+v", frames)
	}
}

// TestStreamHeartbeat shortens the heartbeat interval and checks an idle
// stream emits comment frames that keep the connection alive.
func TestStreamHeartbeat(t *testing.T) {
	old := sseHeartbeat
	sseHeartbeat = 20 * time.Millisecond
	t.Cleanup(func() { sseHeartbeat = old })

	srv, _ := newTestServer(t, ManagerConfig{})
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "hb"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	ch, cancel := openSSE(t, srv.URL+"/v1/sessions/hb/events", nil)
	select {
	case f, ok := <-ch:
		if !ok || f.name != "comment" {
			t.Fatalf("want a heartbeat comment on an idle stream, got %+v (ok=%v)", f, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no heartbeat within 5s at a 20ms interval")
	}
	cancel()
}

// TestStreamNoGoroutineLeaks opens and abandons a pile of SSE
// subscriptions (client cancel and server-side delete) and polls the
// goroutine count back to its baseline — the broadcast buffer must not
// pin per-subscriber goroutines.
func TestStreamNoGoroutineLeaks(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "leak"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	before := runtime.NumGoroutine()

	var cancels []context.CancelFunc
	for i := 0; i < 8; i++ {
		_, cancel := openSSE(t, srv.URL+"/v1/sessions/leak/events", nil)
		cancels = append(cancels, cancel)
	}
	for _, c := range cancels {
		c()
	}

	// A second wave is ended server-side by deleting the session.
	var chans []<-chan sseFrame
	for i := 0; i < 4; i++ {
		ch, _ := openSSE(t, srv.URL+"/v1/sessions/leak/events", nil)
		chans = append(chans, ch)
	}
	if code, body := doJSON(t, "DELETE", srv.URL+"/v1/sessions/leak", nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	for _, ch := range chans {
		collectSSE(t, ch, 10*time.Second)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEventBufferOverflow pushes far past capacity and checks the buffer
// trims from the front while keeping IDs contiguous and resume tokens
// meaningful.
func TestEventBufferOverflow(t *testing.T) {
	b := newEventBuffer(eventLog{})
	total := eventBufferCap + 300
	for i := 0; i < total; i++ {
		b.publish(stream.Event{Type: "x"})
	}
	evs, closed, _, _ := b.readAfter(0)
	if closed {
		t.Fatal("buffer reported closed")
	}
	if len(evs) < eventBufferCap/2 || len(evs) > eventBufferCap {
		t.Fatalf("retained %d events, want %d..%d", len(evs), eventBufferCap/2, eventBufferCap)
	}
	if got := evs[len(evs)-1].ID; got != int64(total) {
		t.Fatalf("newest ID %d, want %d", got, total)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].ID != evs[i-1].ID+1 {
			t.Fatalf("IDs not contiguous at %d: %d then %d", i, evs[i-1].ID, evs[i].ID)
		}
	}
	// Resuming from inside the dropped prefix starts at the oldest
	// retained event.
	first := evs[0].ID
	got, _, _, _ := b.readAfter(first - 100)
	if len(got) != len(evs) || got[0].ID != first {
		t.Fatalf("resume from dropped prefix: %d events from %d, want %d from %d", len(got), got[0].ID, len(evs), first)
	}
	// Resuming from the tail yields nothing until the next publish.
	if got, _, _, _ := b.readAfter(int64(total)); len(got) != 0 {
		t.Fatalf("resume at tail returned %d events", len(got))
	}
	// A token beyond the tail clamps to it.
	if got, _, _, _ := b.readAfter(int64(total) + 5000); len(got) != 0 {
		t.Fatalf("resume beyond tail returned %d events", len(got))
	}
	b.publish(stream.Event{Type: "y"})
	if got, _, _, _ := b.readAfter(int64(total)); len(got) != 1 || got[0].Type != "y" {
		t.Fatalf("post-publish resume: %+v", got)
	}
	// close() wakes waiters and is idempotent; publish after close drops.
	_, _, change, _ := b.readAfter(b.last())
	b.close()
	select {
	case <-change:
	default:
		t.Fatal("close did not wake waiters")
	}
	b.close()
	b.publish(stream.Event{Type: "z"})
	if evs, closed, _, _ := b.readAfter(int64(total)); !closed || len(evs) != 1 {
		t.Fatalf("after close: closed=%v len=%d", closed, len(evs))
	}
}

// TestEventBufferAddAndEvents: published events get IDs 1, 2, ... in
// publish order and read back with their fields intact; readAfter
// returns only the events after its cursor.
func TestEventBufferAddAndEvents(t *testing.T) {
	b := newEventBuffer(eventLog{})
	b.publish(stream.Event{Type: stream.EventSearch, Query: "solar", Results: 3})
	b.publish(stream.Event{Type: stream.EventFetch, URL: "https://x.example/a", Query: "solar"})
	evs, _, _, _ := b.readAfter(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].ID != 1 || evs[1].ID != 2 {
		t.Errorf("IDs %d, %d, want 1, 2", evs[0].ID, evs[1].ID)
	}
	if evs[0].Type != stream.EventSearch || evs[0].Query != "solar" || evs[0].Results != 3 {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Type != stream.EventFetch || evs[1].URL != "https://x.example/a" {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if b.last() != 2 {
		t.Errorf("LastEventID = %d, want 2", b.last())
	}
	if got, _, _, _ := b.readAfter(1); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("readAfter(1) = %+v, want the event with ID 2", got)
	}
}

// TestEventBufferFromEvents: a buffer built from a restored log holds it
// unchanged and numbers the next event right after its last. The buffer
// owns what it holds: publishing past capacity never reaches the source
// log, and mutating a slice readAfter returned never reaches the buffer.
func TestEventBufferFromEvents(t *testing.T) {
	log := []stream.Event{{ID: 300, Type: stream.EventOp, Arg: "q"}, {ID: 301, Type: stream.EventAnswer, Terminal: true}}
	orig := append([]stream.Event(nil), log...)
	b := newEventBuffer(eventLog{evs: log})
	if b.last() != 301 {
		t.Fatalf("restored LastEventID = %d, want 301", b.last())
	}
	got, _, _, _ := b.readAfter(0)
	if !reflect.DeepEqual(got, log) {
		t.Fatalf("restored buffer holds %+v, want %+v", got, log)
	}
	got[0].Arg = "changed"
	if again, _, _, _ := b.readAfter(0); again[0].Arg != "q" {
		t.Errorf("mutating a read reached the buffer: %+v", again[0])
	}
	b.publish(stream.Event{Type: stream.EventOp})
	if got, _, _, _ := b.readAfter(301); len(got) != 1 || got[0].ID != 302 {
		t.Fatalf("next event after restore: %+v, want ID 302", got)
	}
	for range eventBufferCap {
		b.publish(stream.Event{Type: "x"})
	}
	if !reflect.DeepEqual(log, orig) {
		t.Errorf("publishing changed the source log: %+v, want %+v", log, orig)
	}
}

// TestEventBufferFromEventsEmpty: a buffer with no restored log — a new
// session, or a snapshot written with no events — reports LastEventID 0
// and numbers its first event 1.
func TestEventBufferFromEventsEmpty(t *testing.T) {
	for name, log := range map[string][]stream.Event{"nil": nil, "empty": {}} {
		b := newEventBuffer(eventLog{evs: log})
		if b.last() != 0 {
			t.Fatalf("%s: LastEventID = %d, want 0", name, b.last())
		}
		b.publish(stream.Event{Type: "x"})
		if evs, _, _, _ := b.readAfter(0); len(evs) != 1 || evs[0].ID != 1 {
			t.Fatalf("%s: first event %+v, want one event with ID 1", name, evs)
		}
	}
}

// TestEventBufferRawTrim: a buffer restored from raw log lines trims
// past capacity by cutting whole lines, without decoding them. IDs stay
// contiguous, right after the trim readAfter(0) returns the newest
// half, and the lines it was restored from are never changed in place.
func TestEventBufferRawTrim(t *testing.T) {
	log := make([]stream.Event, 500)
	for i := range log {
		log[i] = stream.Event{ID: int64(1001 + i), Type: stream.EventObservation, Text: fmt.Sprintf("step %d", i)}
	}
	path := filepath.Join(t.TempDir(), "trim.json")
	if err := os.WriteFile(path, []byte(encodeSnapshot(t, Snapshot{ID: "trim"}, log)), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}

	b := newEventBuffer(snap.log)
	for range eventBufferCap + 1 - len(log) {
		b.publish(stream.Event{Type: "x"})
	}
	if b.log.rawN != len(log)-(eventBufferCap/2+1) || len(b.log.evs) != eventBufferCap+1-len(log) {
		t.Fatalf("trim left %d raw lines and %d decoded events, want the oldest lines cut undecoded", b.log.rawN, len(b.log.evs))
	}
	evs, _, _, err := b.readAfter(0)
	if err != nil || len(evs) != eventBufferCap/2 {
		t.Fatalf("readAfter(0) after the trim: %d events, %v; want %d", len(evs), err, eventBufferCap/2)
	}
	for i, e := range evs {
		if want := b.last() - int64(len(evs)-1-i); e.ID != want {
			t.Fatalf("event %d has ID %d, want %d", i, e.ID, want)
		}
	}
	if !reflect.DeepEqual(evs[:len(log)-(eventBufferCap/2+1)], log[eventBufferCap/2+1:]) {
		t.Error("the retained raw lines decode to other events than were written")
	}

	// A second buffer over the same lines trims through all of them.
	b = newEventBuffer(snap.log)
	for range 2 * eventBufferCap {
		b.publish(stream.Event{Type: "x"})
	}
	evs, _, _, err = b.readAfter(0)
	if err != nil || len(evs) < eventBufferCap/2 || len(evs) > eventBufferCap || evs[len(evs)-1].ID != b.last() || b.last() != 1000+int64(len(log)+2*eventBufferCap) {
		t.Fatalf("after trimming every raw line: %d events ending at %d, LastEventID %d, %v", len(evs), evs[len(evs)-1].ID, b.last(), err)
	}
	if checkLog(evs) != nil {
		t.Errorf("trimmed log: %v", checkLog(evs))
	}
	if again, _, _, err := newEventBuffer(snap.log).readAfter(0); err != nil || !reflect.DeepEqual(again, log) {
		t.Errorf("trimming changed the restored lines in place (%v)", err)
	}
}

// TestEventBufferConcurrentAdd: concurrent publishers never produce a
// gap or a duplicate ID, and every publish is recorded.
func TestEventBufferConcurrentAdd(t *testing.T) {
	b := newEventBuffer(eventLog{})
	const writers, each = 10, 50 // fewer than eventBufferCap: nothing trims
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				b.publish(stream.Event{Type: "x"})
			}
		}()
	}
	wg.Wait()
	evs, _, _, _ := b.readAfter(0)
	if len(evs) != writers*each || b.last() != writers*each {
		t.Fatalf("recorded %d events, LastEventID %d, want %d", len(evs), b.last(), writers*each)
	}
	for i, e := range evs {
		if e.ID != int64(i+1) {
			t.Fatalf("event %d has ID %d", i, e.ID)
		}
	}
}

// TestEventBufferConcurrentReadersAndWriters: readers following the
// buffer while publishers race each see every event exactly once, in ID
// order; run under -race this is the proof the log is safe to share
// between a session's operations and its subscribers.
func TestEventBufferConcurrentReadersAndWriters(t *testing.T) {
	b := newEventBuffer(eventLog{})
	const writers, each, readers = 4, 100, 3 // fewer than eventBufferCap: nothing trims
	stop := make(chan struct{})
	readErr := make(chan error, readers)
	for range readers {
		go func() {
			var after int64
			for {
				evs, _, change, _ := b.readAfter(after)
				for _, e := range evs {
					if e.ID != after+1 {
						readErr <- fmt.Errorf("reader saw ID %d after %d", e.ID, after)
						return
					}
					after = e.ID
				}
				if last := b.last(); last < after {
					readErr <- fmt.Errorf("LastEventID %d behind a read event %d", last, after)
					return
				}
				select {
				case <-stop:
					readErr <- nil
					return
				case <-change:
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				b.publish(stream.Event{Type: "x"})
			}
		}()
	}
	wg.Wait()
	close(stop)
	for range readers {
		if err := <-readErr; err != nil {
			t.Fatal(err)
		}
	}
	evs, _, _, _ := b.readAfter(0)
	if len(evs) != writers*each || b.last() != writers*each {
		t.Fatalf("recorded %d events, LastEventID %d, want %d", len(evs), b.last(), writers*each)
	}
	for i, e := range evs {
		if e.ID != int64(i+1) {
			t.Fatalf("event %d has ID %d", i, e.ID)
		}
	}
}

// FuzzEventsResume sends arbitrary Last-Event-ID headers and ?after=
// values to GET /events?once=1 on a session restored with a log that
// starts at ID 41, so every resume cursor is untrusted input meeting a
// window that is not anchored at 1. The replay must be exactly the
// retained events after the cursor: the header when it parses as a
// non-negative integer, else ?after= when it does and no header was
// sent, else the tail; a cursor past the tail clamps to it.
func FuzzEventsResume(f *testing.F) {
	dir := f.TempDir()
	log := make([]stream.Event, 20)
	for i := range log {
		log[i] = stream.Event{ID: int64(41 + i), Type: stream.EventObservation, Text: fmt.Sprintf("step %d", i)}
	}
	log[9] = stream.Event{ID: 50, Type: stream.EventAnswer, Text: "mid-log answer", Terminal: true}
	data := encodeSnapshot(f, Snapshot{ID: "resume", Config: Config{Seed: 42}}, log)
	if err := os.WriteFile(filepath.Join(dir, "resume.json"), []byte(data), 0o644); err != nil {
		f.Fatal(err)
	}
	m := newTestManager(f, ManagerConfig{SnapshotDir: dir})
	if _, err := m.Get("resume"); err != nil {
		f.Fatal(err)
	}
	h := Handler(m)

	for _, seed := range [][2]string{
		{"", ""}, {"", "0"}, {"", "45"}, {"", "60"}, {"", "1000"}, {"", "-3"}, {"", "x"},
		{"40", ""}, {"50", "10"}, {"junk", "45"}, {"+44", ""}, {"9223372036854775807", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, header, after string) {
		req := httptest.NewRequest("GET", "/v1/sessions/resume/events?"+url.Values{"once": {"1"}, "after": {after}}.Encode(), nil)
		if header != "" {
			req.Header.Set("Last-Event-ID", header)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}

		last := log[len(log)-1].ID
		cursor, raw := last, after
		if header != "" {
			raw = header
		}
		if n, err := strconv.ParseInt(raw, 10, 64); err == nil && n >= 0 {
			cursor = min(n, last)
		}
		var want []stream.Event
		for _, e := range log {
			if e.ID > cursor {
				want = append(want, e)
			}
		}

		ch := make(chan sseFrame, 2*len(log))
		parseSSE(rec.Body, ch)
		var got []sseFrame
		for fr := range ch {
			got = append(got, fr)
		}
		if len(got) != len(want) {
			t.Fatalf("cursor %d: %d frames, want %d", cursor, len(got), len(want))
		}
		for i, e := range want {
			data, _ := json.Marshal(e)
			if got[i].id != e.ID || got[i].name != e.Type || got[i].data != string(data) {
				t.Fatalf("cursor %d: frame %d = %+v, want event %+v", cursor, i, got[i], e)
			}
		}
	})
}
