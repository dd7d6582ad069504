package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client is the benchmark's one load source: every request of a run
// goes through it, over at most maxConns connections to the front door.
type client struct {
	base  string
	hc    *http.Client
	dials atomic.Int64
	tr    *tracer // nil in the untraced run
}

func newClient(base string, maxConns int, tr *tracer) *client {
	c := &client{base: base, tr: tr}
	d := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		},
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// op runs one workload operation. Under tracing it is the root "op"
// span every request of the operation hangs under.
func (c *client) op(ctx context.Context, fn func(ctx context.Context) error) error {
	if c.tr == nil {
		return fn(ctx)
	}
	s := c.tr.root("op")
	err := fn(withRef(ctx, ref{req: s.Req, parent: s.ID}))
	c.tr.end(s)
	return err
}

// send issues one request and returns the response; the caller closes
// its body and then calls done. Under tracing the request is a
// "client <route>" span whose ID and request ID travel in the headers.
func (c *client) send(ctx context.Context, route, method, path string, body []byte) (resp *http.Response, done func(), err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	done = func() {}
	if c.tr != nil {
		parent, ok := refFrom(ctx)
		if !ok {
			parent = ref{req: c.tr.reqs.Add(1)}
		}
		s := c.tr.begin("client "+route, parent)
		req.Header.Set(hdrReq, strconv.FormatInt(s.Req, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
		done = func() { c.tr.end(s) }
	}
	resp, err = c.hc.Do(req)
	if err != nil {
		done()
		return nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp, done, nil
}

// call sends a request and reads the whole response. Any status other
// than 2xx is an error.
func (c *client) call(ctx context.Context, route, method, path string, body any) ([]byte, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	resp, done, err := c.send(ctx, route, method, path, data)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done()
	if err != nil {
		return nil, fmt.Errorf("%s %s: read: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{method: method, path: path, code: resp.StatusCode, body: bytes.TrimSpace(out)}
	}
	return out, nil
}

// statusError is a non-2xx response.
type statusError struct {
	method, path string
	code         int
	body         []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: %d %s", e.method, e.path, e.code, e.body)
}

// evictedMidRequest reports the one failure a client retries: the
// session was evicted between the handler's lookup and its operation,
// so the operation found it closed (409). The session is intact on
// disk and the retry restores it.
func evictedMidRequest(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == http.StatusConflict && bytes.Contains(se.body, []byte("session: closed"))
}

func (c *client) post(ctx context.Context, route, path string, body any) ([]byte, error) {
	return c.call(ctx, route, http.MethodPost, path, body)
}

func (c *client) get(ctx context.Context, route, path string, into any) error {
	out, err := c.call(ctx, route, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if into == nil {
		return nil
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

// sseEvent is one Server-Sent Event as the session stream frames it.
type sseEvent struct {
	id   int64
	typ  string
	data string
	at   time.Time
}

// readSSE parses an event stream until it ends, handing each event to
// fn as it arrives.
func readSSE(r io.Reader, fn func(sseEvent)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.typ != "" || ev.data != "" {
				ev.at = time.Now()
				fn(ev)
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, ":"):
			// comment (heartbeat)
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.ParseInt(line[len("id: "):], 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		}
	}
	return sc.Err()
}

// tally collects one phase's operations: latency of each completed
// operation, and how many were attempted and failed. A failed output
// check counts as a failed operation.
type tally struct {
	mu        sync.Mutex
	lat       []time.Duration
	attempted int
	failed    int
	errs      []string
}

func (t *tally) record(d time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	t.lat = append(t.lat, d)
}

// closedLoop runs workers, each sending its next operation only after
// the previous one completed and think has passed, for as long as more
// allows. Operations are numbered across workers in the order they
// start; their latency excludes the think time.
func closedLoop(workers int, think time.Duration, more func(n int) bool, t *tally, op func(worker, n int) error) {
	var (
		wg  sync.WaitGroup
		seq atomic.Int64
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if think > 0 {
					time.Sleep(think)
				}
				n := int(seq.Add(1) - 1)
				if !more(n) {
					return
				}
				t0 := time.Now()
				err := op(w, n)
				t.record(time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
}

// during lets a closed loop run for d.
func during(d time.Duration) func(int) bool {
	until := time.Now().Add(d)
	return func(int) bool { return time.Now().Before(until) }
}

// times lets a closed loop run n operations: a fixed amount of work.
func times(n int) func(int) bool {
	return func(i int) bool { return i < n }
}
