package backend

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatedClock parks every Sleep until the test releases it (or the
// sleeper's ctx dies), so hedge-timer tests control exactly when time
// "passes" — the fake-clock discipline the hedging path is designed
// around.
type gatedClock struct {
	mu     sync.Mutex
	now    time.Time
	parked []chan struct{}
}

func newGatedClock() *gatedClock {
	return &gatedClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *gatedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *gatedClock) Sleep(ctx context.Context, d time.Duration) error {
	gate := make(chan struct{})
	c.mu.Lock()
	c.parked = append(c.parked, gate)
	c.mu.Unlock()
	select {
	case <-gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseOne wakes the oldest parked sleeper, reporting whether one
// existed.
func (c *gatedClock) releaseOne() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.parked) == 0 {
		return false
	}
	close(c.parked[0])
	c.parked = c.parked[1:]
	return true
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRemoteSingleflightCoalesces: identical prompts in flight at once
// share one upstream request; the followers' completions are free.
func TestRemoteSingleflightCoalesces(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	tr := &blockingTransport{release: release, entered: entered}
	r, _, ctrs := newTestRemote(t, tr, nil)

	var wg sync.WaitGroup
	outs := make([]string, 2)
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); outs[0], errs[0] = r.Complete(context.Background(), "same") }()
	<-entered // the leader holds the upstream request open
	wg.Add(1)
	go func() { defer wg.Done(); outs[1], errs[1] = r.Complete(context.Background(), "same") }()
	waitFor(t, "follower coalesced", func() bool { return ctrs.Snapshot().Coalesced == 1 })
	close(release)
	wg.Wait()

	for i := 0; i < 2; i++ {
		if errs[i] != nil || outs[i] != "done" {
			t.Fatalf("call %d = %q, %v", i, outs[i], errs[i])
		}
	}
	st := ctrs.Snapshot()
	if st.Requests != 1 {
		t.Errorf("requests = %d, want 1 (identical in-flight prompts must share the wire)", st.Requests)
	}
	if st.Coalesced != 1 {
		t.Errorf("coalesced = %d, want 1", st.Coalesced)
	}
}

// TestRemoteSingleflightLeaderCancelled: when the flight leader is
// cancelled, a live follower does not inherit the ctx error — it retries
// with a flight of its own.
func TestRemoteSingleflightLeaderCancelled(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	tr := &blockingTransport{release: release, entered: entered}
	r, _, ctrs := newTestRemote(t, tr, nil)

	lctx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.Complete(lctx, "same")
		leaderErr <- err
	}()
	<-entered

	followerOut := make(chan string, 1)
	go func() {
		out, err := r.Complete(context.Background(), "same")
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerOut <- out
	}()
	waitFor(t, "follower coalesced", func() bool { return ctrs.Snapshot().Coalesced == 1 })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	<-entered // the follower's own retry flight reaches the wire
	close(release)
	if out := <-followerOut; out != "done" {
		t.Errorf("follower out = %q, want %q", out, "done")
	}
	if st := ctrs.Snapshot(); st.Requests != 2 {
		t.Errorf("requests = %d, want 2 (leader + follower retry)", st.Requests)
	}
}

// tailTransport hangs its first request until that request's context is
// cancelled; every later request answers fast — the injected tail a
// hedge should cut.
type tailTransport struct {
	mu      sync.Mutex
	calls   int
	entered chan struct{}
}

func (tr *tailTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr.mu.Lock()
	tr.calls++
	n := tr.calls
	tr.mu.Unlock()
	if n == 1 {
		select {
		case tr.entered <- struct{}{}:
		default:
		}
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	resp := chatResponse{}
	resp.Choices = append(resp.Choices, struct {
		Message chatMessage `json:"message"`
	}{Message: chatMessage{Role: "assistant", Content: "fast"}})
	b, _ := json.Marshal(resp)
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(string(b))),
		Request:    req,
	}, nil
}

// TestRemoteHedgeCutsTail: a primary request stuck in the upstream tail
// is raced by a hedge after the hedge delay, and the hedge's fast
// response completes the call — the whole sequence driven by the gated
// clock, no real waits.
func TestRemoteHedgeCutsTail(t *testing.T) {
	tr := &tailTransport{entered: make(chan struct{}, 1)}
	clk := newGatedClock()
	ctrs := &Counters{}
	r, err := NewRemote(RemoteConfig{
		Endpoint:   "http://llm.test/v1",
		HedgeDelay: 50 * time.Millisecond,
		Client:     &http.Client{Transport: tr},
		Clock:      clk,
		Jitter:     func() float64 { return 0 },
		Counters:   ctrs,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var out string
	var cerr error
	go func() {
		defer close(done)
		out, cerr = r.Complete(context.Background(), "tail")
	}()
	<-tr.entered // the primary is stuck in the tail
	waitFor(t, "hedge timer parked", clk.releaseOne)
	<-done

	if cerr != nil || out != "fast" {
		t.Fatalf("Complete = %q, %v (the hedge should have answered)", out, cerr)
	}
	st := ctrs.Snapshot()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("hedges = %d, wins = %d, want 1/1", st.Hedges, st.HedgeWins)
	}
	if st.Requests != 2 {
		t.Errorf("requests = %d, want 2 (primary + hedge)", st.Requests)
	}
	if st.Failures != 0 {
		t.Errorf("failures = %d: a won hedge is not a failure", st.Failures)
	}
}
