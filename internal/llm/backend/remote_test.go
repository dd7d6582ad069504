package backend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// simPrompt is a wire-format prompt the simulated fallback model can
// answer, so fallback-path tests can compare real completions.
var simPrompt = prompt.Prompt{Task: prompt.TaskConfidence, Question: "what happened?"}.Encode()

// fakeClock is a deterministic Clock: Sleep records the requested wait,
// advances simulated time by it, and returns immediately — so the whole
// backoff/breaker suite runs without one real sleep.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	sleeps  []time.Duration
	onSleep func() // runs before each sleep (tests use it to cancel ctx)
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	hook := c.onSleep
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return nil
}

func (c *fakeClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// step scripts one upstream response: an HTTP status with optional
// Retry-After, a transport error, or (status 200) a good completion.
type step struct {
	status     int
	content    string // choice content when status == 200
	retryAfter string
	err        error // transport-level failure instead of a response
	hang       bool  // hold the request until its context ends
}

// scriptedTransport serves the scripted steps in order; once exhausted
// it repeats the last one. It records every request body for assertion.
type scriptedTransport struct {
	mu      sync.Mutex
	steps   []step
	calls   int
	prompts []string
	auths   []string
	urls    []string
}

func (tr *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr.mu.Lock()
	i := tr.calls
	tr.calls++
	if i >= len(tr.steps) {
		i = len(tr.steps) - 1
	}
	st := tr.steps[i]
	body, _ := io.ReadAll(req.Body)
	var cr chatRequest
	_ = json.Unmarshal(body, &cr)
	if len(cr.Messages) > 0 {
		tr.prompts = append(tr.prompts, cr.Messages[0].Content)
	}
	tr.auths = append(tr.auths, req.Header.Get("Authorization"))
	tr.urls = append(tr.urls, req.URL.String())
	tr.mu.Unlock()

	if st.err != nil {
		return nil, st.err
	}
	if st.hang {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	h := http.Header{}
	if st.retryAfter != "" {
		h.Set("Retry-After", st.retryAfter)
	}
	var payload string
	if st.status == http.StatusOK {
		resp := chatResponse{}
		resp.Choices = append(resp.Choices, struct {
			Message chatMessage `json:"message"`
		}{Message: chatMessage{Role: "assistant", Content: st.content}})
		b, _ := json.Marshal(resp)
		payload = string(b)
	} else {
		payload = fmt.Sprintf(`{"error":{"message":"status %d"}}`, st.status)
	}
	return &http.Response{
		StatusCode: st.status,
		Status:     fmt.Sprintf("%d %s", st.status, http.StatusText(st.status)),
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(payload)),
		Request:    req,
	}, nil
}

func (tr *scriptedTransport) Calls() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.calls
}

// newTestRemote wires a Remote to the scripted transport with a fake
// clock, zero jitter (so backoff waits are exactly d/2) and a private
// counter set.
func newTestRemote(t *testing.T, tr http.RoundTripper, mutate func(*RemoteConfig)) (*Remote, *fakeClock, *Counters) {
	t.Helper()
	clk := newFakeClock()
	ctrs := &Counters{}
	cfg := RemoteConfig{
		Endpoint: "http://llm.test/v1",
		Upstream: "gpt-4",
		Client:   &http.Client{Transport: tr},
		Clock:    clk,
		Jitter:   func() float64 { return 0 },
		Counters: ctrs,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, clk, ctrs
}

func TestRemoteSuccessAndCache(t *testing.T) {
	tr := &scriptedTransport{steps: []step{{status: 200, content: "the answer"}}}
	r, clk, ctrs := newTestRemote(t, tr, func(c *RemoteConfig) { c.APIKey = "sk-test" })
	ctx := context.Background()

	out, err := r.Complete(ctx, "what happened?")
	if err != nil || out != "the answer" {
		t.Fatalf("Complete = %q, %v", out, err)
	}
	// Identical prompt: served from the LRU cache, not the wire.
	out, err = r.Complete(ctx, "what happened?")
	if err != nil || out != "the answer" {
		t.Fatalf("cached Complete = %q, %v", out, err)
	}
	if tr.Calls() != 1 {
		t.Errorf("upstream calls = %d, want 1", tr.Calls())
	}
	if len(clk.Sleeps()) != 0 {
		t.Errorf("slept %v on the success path", clk.Sleeps())
	}
	st := ctrs.Snapshot()
	if st.Requests != 1 || st.CacheHits != 1 || st.Retries != 0 || st.Failures != 0 {
		t.Errorf("counters %+v", st)
	}
	// Wire shape: auth header, chat-completions path, prompt in body.
	if tr.auths[0] != "Bearer sk-test" {
		t.Errorf("auth = %q", tr.auths[0])
	}
	if tr.urls[0] != "http://llm.test/v1/chat/completions" {
		t.Errorf("url = %q", tr.urls[0])
	}
	if tr.prompts[0] != "what happened?" {
		t.Errorf("prompt = %q", tr.prompts[0])
	}
}

// TestRemoteBackoffSchedule injects a 5xx burst and asserts the exact
// retry schedule: with zero jitter, attempt n waits
// min(base<<n, max)/2 — 100ms, 200ms, 400ms for base=200ms.
func TestRemoteBackoffSchedule(t *testing.T) {
	tr := &scriptedTransport{steps: []step{
		{status: 500}, {status: 502}, {status: 503}, {status: 200, content: "recovered"},
	}}
	r, clk, ctrs := newTestRemote(t, tr, nil)

	out, err := r.Complete(context.Background(), "q")
	if err != nil || out != "recovered" {
		t.Fatalf("Complete = %q, %v", out, err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	got := clk.Sleeps()
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sleep[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	st := ctrs.Snapshot()
	if st.Requests != 4 || st.Retries != 3 || st.Failures != 0 {
		t.Errorf("counters %+v", st)
	}
}

// TestRemoteBackoffCap proves the exponential schedule caps at
// backoffMax (cap/2 with zero jitter) instead of growing unboundedly.
// The retry budget ends before the cap, so the schedule is asserted
// directly.
func TestRemoteBackoffCap(t *testing.T) {
	r, _, _ := newTestRemote(t, nil, nil) // no request is made
	// base 200ms, max 5s: 100, 200, 400, 800, 1600ms, then capped at
	// 2.5s however many attempts follow.
	for attempt, want := range map[int]time.Duration{
		0:  100 * time.Millisecond,
		4:  1600 * time.Millisecond,
		5:  backoffMax / 2,
		6:  backoffMax / 2,
		60: backoffMax / 2,
	} {
		if got := r.backoff(attempt); got != want {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
}

// TestRemoteRetryAfter asserts the server's Retry-After wins over the
// backoff schedule, in both delta-seconds and HTTP-date form.
func TestRemoteRetryAfter(t *testing.T) {
	clkStart := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tr := &scriptedTransport{steps: []step{
		{status: 429, retryAfter: "2"},
		{status: 429, retryAfter: clkStart.Add(5 * time.Second).Format(http.TimeFormat)},
		{status: 200, content: "ok"},
	}}
	r, clk, _ := newTestRemote(t, tr, nil)

	out, err := r.Complete(context.Background(), "q")
	if err != nil || out != "ok" {
		t.Fatalf("Complete = %q, %v", out, err)
	}
	sleeps := clk.Sleeps()
	if len(sleeps) != 2 || sleeps[0] != 2*time.Second {
		t.Fatalf("sleeps = %v, want [2s, ~3s]", sleeps)
	}
	// The HTTP date is 5s after the start, but the first sleep consumed
	// 2s of simulated time, so 3s remain.
	if sleeps[1] != 3*time.Second {
		t.Errorf("date-form Retry-After sleep = %v, want 3s", sleeps[1])
	}
}

// TestRemoteRetryAfterCapped: a Retry-After longer than backoffMax
// waits backoffMax, so an upstream cannot park a call for an hour.
func TestRemoteRetryAfterCapped(t *testing.T) {
	clkStart := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, after := range []string{"3600", clkStart.Add(time.Hour).Format(http.TimeFormat)} {
		tr := &scriptedTransport{steps: []step{
			{status: 429, retryAfter: after},
			{status: 200, content: "ok"},
		}}
		r, clk, _ := newTestRemote(t, tr, nil)
		if out, err := r.Complete(context.Background(), "q"); err != nil || out != "ok" {
			t.Fatalf("Retry-After %s: Complete = %q, %v", after, out, err)
		}
		if sleeps := clk.Sleeps(); len(sleeps) != 1 || sleeps[0] > backoffMax {
			t.Errorf("Retry-After %s: sleeps = %v, want one of at most %v", after, sleeps, backoffMax)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{"-3", 0},
		{"soon", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in, now); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRemoteTransportErrorRetries treats hangs/resets (transport errors)
// as retryable.
func TestRemoteTransportErrorRetries(t *testing.T) {
	tr := &scriptedTransport{steps: []step{
		{err: errors.New("connection reset")},
		{status: 200, content: "after reset"},
	}}
	r, _, ctrs := newTestRemote(t, tr, nil)
	out, err := r.Complete(context.Background(), "q")
	if err != nil || out != "after reset" {
		t.Fatalf("Complete = %q, %v", out, err)
	}
	if st := ctrs.Snapshot(); st.Requests != 2 || st.Retries != 1 {
		t.Errorf("counters %+v", st)
	}
}

// TestRemotePermanentErrorNoRetry: a 4xx other than 429 fails without
// burning retries, and falls back when a fallback is configured.
func TestRemotePermanentErrorNoRetry(t *testing.T) {
	tr := &scriptedTransport{steps: []step{{status: 400}}}
	sim := llm.NewSim()
	r, clk, ctrs := newTestRemote(t, tr, func(c *RemoteConfig) { c.Fallback = llm.NewSim() })
	ctx := context.Background()

	out, err := r.Complete(ctx, simPrompt)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	want, _ := sim.Complete(ctx, simPrompt)
	if out != want {
		t.Errorf("fallback output %q, want sim's %q", out, want)
	}
	if tr.Calls() != 1 || len(clk.Sleeps()) != 0 {
		t.Errorf("calls = %d, sleeps = %v; want 1 call, no sleeps", tr.Calls(), clk.Sleeps())
	}
	if st := ctrs.Snapshot(); st.Failures != 1 || st.Fallbacks != 1 || st.Retries != 0 {
		t.Errorf("counters %+v", st)
	}
}

// TestRemoteRetriesExhausted: a sustained failure spends the retry
// budget, then errors (no fallback configured).
func TestRemoteRetriesExhausted(t *testing.T) {
	tr := &scriptedTransport{steps: []step{{status: 503}}}
	r, clk, ctrs := newTestRemote(t, tr, nil)
	_, err := r.Complete(context.Background(), "q")
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v, want upstream 503", err)
	}
	if tr.Calls() != maxRetries+1 || len(clk.Sleeps()) != maxRetries {
		t.Errorf("calls = %d, sleeps = %v; want %d calls, %d sleeps", tr.Calls(), clk.Sleeps(), maxRetries+1, maxRetries)
	}
	if st := ctrs.Snapshot(); st.Requests != maxRetries+1 || st.Retries != maxRetries || st.Failures != 1 {
		t.Errorf("counters %+v", st)
	}
}

// TestRemoteBreakerLifecycle walks the full state machine: a failure run
// opens the breaker, open serves sim-fallback without touching the
// server, the cooldown admits one half-open probe, and a probe success
// closes it again. A failed probe reopens it. The failures are
// permanent 400s, which are never retried, so each call is one request.
func TestRemoteBreakerLifecycle(t *testing.T) {
	var steps []step
	for i := 0; i < breakerThreshold; i++ {
		steps = append(steps, step{status: 400}) // failure run -> breaker opens
	}
	steps = append(steps,
		step{status: 400},                    // failed half-open probe -> reopens
		step{status: 200, content: "healed"}, // second probe succeeds -> closes
	)
	tr := &scriptedTransport{steps: steps}
	sim := llm.NewSim()
	r, clk, ctrs := newTestRemote(t, tr, func(c *RemoteConfig) { c.Fallback = llm.NewSim() })
	ctx := context.Background()

	// A failure run of breakerThreshold opens the breaker; every call of
	// it degrades to sim.
	for i := 0; i < breakerThreshold; i++ {
		out, err := r.Complete(ctx, simPrompt)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want, _ := sim.Complete(ctx, simPrompt); out != want {
			t.Errorf("call %d fallback = %q, want %q", i, out, want)
		}
	}
	if st := ctrs.Snapshot(); st.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d after failure run, want 1", st.BreakerOpens)
	}

	// While open: fail fast on sim fallback, server untouched.
	calls := tr.Calls()
	if out, err := r.Complete(ctx, simPrompt); err != nil || out == "" {
		t.Fatalf("open-breaker Complete = %q, %v", out, err)
	}
	if tr.Calls() != calls {
		t.Errorf("breaker-open call hit the server (%d -> %d calls)", calls, tr.Calls())
	}

	// Cooldown elapses: the next call is the half-open probe. It fails
	// (scripted 400), so the breaker reopens.
	clk.Advance(breakerCooldown + time.Second)
	if _, err := r.Complete(ctx, simPrompt); err != nil {
		t.Fatal(err)
	}
	if tr.Calls() != calls+1 {
		t.Errorf("half-open probe did not hit the server")
	}
	if st := ctrs.Snapshot(); st.BreakerOpens != 2 {
		t.Errorf("breaker opens = %d after failed probe, want 2", st.BreakerOpens)
	}

	// Second cooldown, second probe: succeeds and closes the breaker.
	clk.Advance(breakerCooldown + time.Second)
	out, err := r.Complete(ctx, simPrompt)
	if err != nil || out != "healed" {
		t.Fatalf("recovery probe = %q, %v", out, err)
	}
	// Closed again: the next call goes straight through. It asks a new
	// prompt, because the probe's answer is now cached.
	calls = tr.Calls()
	if out, _ := r.Complete(ctx, "after recovery"); out != "healed" {
		t.Errorf("post-recovery Complete = %q", out)
	}
	if tr.Calls() != calls+1 {
		t.Errorf("closed breaker did not admit the request")
	}
	// No real sleeps happened anywhere (permanent errors are not retried).
	if len(clk.Sleeps()) != 0 {
		t.Errorf("breaker path slept: %v", clk.Sleeps())
	}
	st := ctrs.Snapshot()
	if st.Fallbacks < 3 || st.Failures < 4 {
		t.Errorf("counters %+v", st)
	}
}

// TestRemoteBreakerOpenNoFallback: with no fallback configured an open
// breaker surfaces ErrBreakerOpen.
func TestRemoteBreakerOpenNoFallback(t *testing.T) {
	tr := &scriptedTransport{steps: []step{{status: 400}}}
	r, _, _ := newTestRemote(t, tr, nil)
	ctx := context.Background()
	for i := 0; i < breakerThreshold; i++ {
		if _, err := r.Complete(ctx, "q"); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("call %d = %v, want the upstream 400", i, err)
		}
	}
	_, err := r.Complete(ctx, "q")
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
}

// cancelMidRequest starts a completion of prompt, cancels its context
// once the request has reached the transport, and checks that the call
// returns the cancellation.
func cancelMidRequest(t *testing.T, r *Remote, tr *scriptedTransport, prompt string) {
	t.Helper()
	calls := tr.Calls()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := r.Complete(ctx, prompt)
		errc <- err
	}()
	waitFor(t, "the request to reach the transport", func() bool { return tr.Calls() > calls })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call = %v, want context.Canceled", err)
	}
}

// TestRemoteBreakerIgnoresCallerCancellation: a caller that cancels
// mid-request says nothing about the upstream's health. A run of
// breakerThreshold cancellations neither opens the breaker nor counts
// as failures, and the next call reaches the (healthy) upstream.
func TestRemoteBreakerIgnoresCallerCancellation(t *testing.T) {
	var steps []step
	for i := 0; i < breakerThreshold; i++ {
		steps = append(steps, step{hang: true})
	}
	steps = append(steps, step{status: 200, content: "healthy"})
	tr := &scriptedTransport{steps: steps}
	r, _, ctrs := newTestRemote(t, tr, nil)

	for i := 0; i < breakerThreshold; i++ {
		cancelMidRequest(t, r, tr, fmt.Sprintf("cancelled-%d", i))
	}
	if st := ctrs.Snapshot(); st.BreakerOpens != 0 || st.Failures != 0 {
		t.Fatalf("after %d cancellations: breaker opens %d, failures %d; want 0 and 0",
			breakerThreshold, st.BreakerOpens, st.Failures)
	}
	calls := tr.Calls()
	out, err := r.Complete(context.Background(), "after cancellations")
	if err != nil || out != "healthy" {
		t.Fatalf("Complete after cancellations = %q, %v; want the upstream's answer", out, err)
	}
	if tr.Calls() != calls+1 {
		t.Errorf("upstream calls %d -> %d, want one more", calls, tr.Calls())
	}
}

// TestRemoteBreakerCancelledProbe: a half-open probe whose caller
// cancels it frees the probe slot without reopening the breaker, so
// the next request is admitted as the probe, and its success closes
// the breaker.
func TestRemoteBreakerCancelledProbe(t *testing.T) {
	var steps []step
	for i := 0; i < breakerThreshold; i++ {
		steps = append(steps, step{status: 400}) // failure run -> breaker opens
	}
	steps = append(steps,
		step{hang: true},                     // the probe, cancelled by its caller
		step{status: 200, content: "healed"}, // the next probe
	)
	tr := &scriptedTransport{steps: steps}
	r, clk, ctrs := newTestRemote(t, tr, nil)
	ctx := context.Background()
	for i := 0; i < breakerThreshold; i++ {
		if _, err := r.Complete(ctx, "q"); err == nil {
			t.Fatalf("call %d succeeded, want the upstream 400", i)
		}
	}
	if st := ctrs.Snapshot(); st.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d after failure run, want 1", st.BreakerOpens)
	}

	clk.Advance(breakerCooldown + time.Second)
	cancelMidRequest(t, r, tr, "probe")
	if st := ctrs.Snapshot(); st.BreakerOpens != 1 {
		t.Errorf("breaker opens = %d after a cancelled probe, want still 1", st.BreakerOpens)
	}

	calls := tr.Calls()
	out, err := r.Complete(ctx, "next probe")
	if err != nil || out != "healed" {
		t.Fatalf("request after the cancelled probe = %q, %v; want it admitted as the probe", out, err)
	}
	if tr.Calls() != calls+1 {
		t.Errorf("upstream calls %d -> %d, want one more", calls, tr.Calls())
	}
	// The probe's success closed the breaker: the next call goes through.
	if out, err := r.Complete(ctx, "closed again"); err != nil || out != "healed" {
		t.Errorf("Complete after recovery = %q, %v", out, err)
	}
}

// TestRemoteBreakerOpensOnCallerDeadlines: unlike a cancellation, a
// caller's deadline that a hung upstream outlasts is an upstream
// failure. breakerThreshold such calls open the breaker, the next call
// fails fast without reaching the upstream, and a half-open probe that
// times out reopens it.
func TestRemoteBreakerOpensOnCallerDeadlines(t *testing.T) {
	var steps []step
	for i := 0; i <= breakerThreshold; i++ {
		steps = append(steps, step{hang: true}) // the failure run, then the probe
	}
	steps = append(steps, step{status: 200, content: "healthy"})
	tr := &scriptedTransport{steps: steps}
	r, clk, ctrs := newTestRemote(t, tr, nil)
	timedOut := func(prompt string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		if _, err := r.Complete(ctx, prompt); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call on a hung upstream = %v, want context.DeadlineExceeded", err)
		}
	}

	for i := 0; i < breakerThreshold; i++ {
		timedOut(fmt.Sprintf("hung-%d", i))
	}
	if st := ctrs.Snapshot(); st.BreakerOpens != 1 || st.Failures != breakerThreshold {
		t.Fatalf("after %d timed-out calls: breaker opens %d, failures %d; want 1 and %d",
			breakerThreshold, st.BreakerOpens, st.Failures, breakerThreshold)
	}
	calls := tr.Calls()
	if _, err := r.Complete(context.Background(), "while open"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Complete with the breaker open = %v, want ErrBreakerOpen", err)
	}
	if tr.Calls() != calls {
		t.Errorf("the open breaker let %d calls through, want 0", tr.Calls()-calls)
	}

	clk.Advance(breakerCooldown + time.Second)
	timedOut("probe")
	if st := ctrs.Snapshot(); st.BreakerOpens != 2 {
		t.Fatalf("breaker opens = %d after a timed-out probe, want 2", st.BreakerOpens)
	}
	if _, err := r.Complete(context.Background(), "reopened"); !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("Complete after the timed-out probe = %v, want ErrBreakerOpen", err)
	}
}

// TestRemoteCtxCancelMidRetry: cancellation during a backoff wait
// surfaces the cancellation itself — no fallback masking, no further
// attempts.
func TestRemoteCtxCancelMidRetry(t *testing.T) {
	tr := &scriptedTransport{steps: []step{{status: 500}}}
	ctx, cancel := context.WithCancel(context.Background())
	r, clk, ctrs := newTestRemote(t, tr, func(c *RemoteConfig) { c.Fallback = llm.NewSim() })
	clk.onSleep = cancel // the ctx dies while waiting to retry

	_, err := r.Complete(ctx, "q")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr.Calls() != 1 {
		t.Errorf("calls = %d after cancellation, want 1", tr.Calls())
	}
	if st := ctrs.Snapshot(); st.Fallbacks != 0 {
		t.Errorf("cancellation took the fallback path: %+v", st)
	}
}

// TestRemoteGate: the in-flight gate bounds concurrency and respects
// ctx while waiting for a slot.
func TestRemoteGate(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, maxInFlight)
	tr := &blockingTransport{release: release, entered: entered}
	r, _, _ := newTestRemote(t, tr, nil)

	// Distinct prompts, so no call coalesces onto another's flight.
	var wg sync.WaitGroup
	for i := 0; i < maxInFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := r.Complete(context.Background(), fmt.Sprintf("slow-%d", i))
			if err != nil || out != "done" {
				t.Errorf("gated call %d = %q, %v", i, out, err)
			}
		}(i)
	}
	for i := 0; i < maxInFlight; i++ {
		<-entered // every slot is held inside the transport
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Complete(ctx, "blocked"); !errors.Is(err, context.Canceled) {
		t.Errorf("gate wait err = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
}

// TestRemoteGateFreeDuringRetryAfter: a call waiting out a Retry-After
// holds no slot of the in-flight gate. With maxInFlight calls parked in
// that wait, the gate is empty and a new prompt completes at once.
func TestRemoteGateFreeDuringRetryAfter(t *testing.T) {
	clk := &parkingClock{parked: make(chan struct{}, maxInFlight), release: make(chan struct{})}
	tr := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		body, _ := io.ReadAll(req.Body)
		if strings.Contains(string(body), "slow-") && clk.first(string(body)) {
			return chatReply(req, http.StatusTooManyRequests, "1", "")
		}
		return chatReply(req, http.StatusOK, "", "done")
	})
	r, _, _ := newTestRemote(t, tr, func(c *RemoteConfig) { c.Clock = clk })

	var wg sync.WaitGroup
	for i := 0; i < maxInFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if out, err := r.Complete(context.Background(), fmt.Sprintf("slow-%d", i)); err != nil || out != "done" {
				t.Errorf("retried call %d = %q, %v", i, out, err)
			}
		}(i)
	}
	for i := 0; i < maxInFlight; i++ {
		<-clk.parked // every caller is waiting out its Retry-After
	}
	if n := len(r.gate); n != 0 {
		t.Errorf("%d gate slots held by callers waiting out a Retry-After, want 0", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if out, err := r.Complete(ctx, "fresh"); err != nil || out != "done" {
		t.Errorf("new prompt beside %d parked callers = %q, %v", maxInFlight, out, err)
	}
	close(clk.release)
	wg.Wait()
}

// parkingClock is a Clock whose Sleep parks until released; first
// reports whether a request body is seen for the first time.
type parkingClock struct {
	parked  chan struct{}
	release chan struct{}
	mu      sync.Mutex
	seen    map[string]bool
}

func (c *parkingClock) Now() time.Time { return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) }

func (c *parkingClock) Sleep(ctx context.Context, d time.Duration) error {
	c.parked <- struct{}{}
	select {
	case <-c.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *parkingClock) first(body string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen[body] {
		return false
	}
	if c.seen == nil {
		c.seen = map[string]bool{}
	}
	c.seen[body] = true
	return true
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// chatReply is a chat-completions response: content under status 200,
// otherwise an error body with an optional Retry-After.
func chatReply(req *http.Request, status int, retryAfter, content string) (*http.Response, error) {
	h := http.Header{}
	if retryAfter != "" {
		h.Set("Retry-After", retryAfter)
	}
	payload := fmt.Sprintf(`{"error":{"message":"status %d"}}`, status)
	if status == http.StatusOK {
		resp := chatResponse{}
		resp.Choices = append(resp.Choices, struct {
			Message chatMessage `json:"message"`
		}{Message: chatMessage{Role: "assistant", Content: content}})
		b, _ := json.Marshal(resp)
		payload = string(b)
	}
	return &http.Response{
		StatusCode: status,
		Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(payload)),
		Request:    req,
	}, nil
}

// blockingTransport holds every request until released, then answers 200.
type blockingTransport struct {
	release <-chan struct{}
	entered chan<- struct{}
}

func (tr *blockingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	select {
	case tr.entered <- struct{}{}:
	default:
	}
	select {
	case <-tr.release:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	resp := chatResponse{}
	resp.Choices = append(resp.Choices, struct {
		Message chatMessage `json:"message"`
	}{Message: chatMessage{Role: "assistant", Content: "done"}})
	b, _ := json.Marshal(resp)
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(string(b))),
		Request:    req,
	}, nil
}

// TestRemoteCacheEviction: the LRU evicts the oldest prompt at capacity.
func TestRemoteCacheEviction(t *testing.T) {
	c := newPromptCache(2)
	c.put("a", "1")
	c.put("b", "2")
	if _, ok := c.get("a"); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	c.put("c", "3") // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	for k, want := range map[string]string{"a": "1", "c": "3"} {
		if v, ok := c.get(k); !ok || v != want {
			t.Errorf("get(%q) = %q, %v", k, v, ok)
		}
	}
}

// TestRemoteOpenAIContract drives Remote against a server shaped like
// the real chat-completions API rather than the repository's stub: the
// messages array is one conversation, answered with n choices (default
// 1) for its last message inside the id/object/created/usage envelope.
// Concurrent distinct prompts each get their own reply, every request is
// a one-message conversation, and a 200 carrying no choices is an error
// (or the fallback's answer), never a panic.
func TestRemoteOpenAIContract(t *testing.T) {
	const n = 8
	userMsgs := make(chan int, n) // one send per request
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Model    string        `json:"model"`
			Messages []chatMessage `json:"messages"`
			N        *int          `json:"n"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Messages) == 0 {
			http.Error(w, `{"error":{"message":"bad request"}}`, http.StatusBadRequest)
			return
		}
		users := 0
		for _, m := range req.Messages {
			if m.Role == "user" {
				users++
			}
		}
		userMsgs <- users
		count := 1
		if req.N != nil {
			count = *req.N
		}
		reply := chatMessage{Role: "assistant", Content: "reply:" + req.Messages[len(req.Messages)-1].Content}
		choices := make([]map[string]any, count)
		for i := range choices {
			choices[i] = map[string]any{"index": i, "message": reply, "finish_reason": "stop"}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{ // a failed write shows up as the client's error
			"id":      "chatcmpl-test",
			"object":  "chat.completion",
			"created": 1767225600,
			"model":   req.Model,
			"choices": choices,
			"usage":   map[string]int{"prompt_tokens": 1, "completion_tokens": 1, "total_tokens": 2},
		})
	}))
	defer srv.Close()
	ctrs := &Counters{}
	r, err := NewRemote(RemoteConfig{Endpoint: srv.URL, Counters: ctrs})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = r.Complete(context.Background(), fmt.Sprintf("prompt-%d", i))
		}(i)
	}
	wg.Wait()
	close(userMsgs)
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("reply:prompt-%d", i); errs[i] != nil || outs[i] != want {
			t.Errorf("prompt %d = %q, %v; want %q", i, outs[i], errs[i], want)
		}
	}
	requests := 0
	for users := range userMsgs {
		requests++
		if users != 1 {
			t.Errorf("request carried %d user messages, want 1", users)
		}
	}
	if requests != n {
		t.Errorf("server saw %d requests, want %d", requests, n)
	}
	if st := ctrs.Snapshot(); st.Requests != n || st.Failures != 0 || st.Fallbacks != 0 {
		t.Errorf("counters %+v, want %d requests and no failures or fallbacks", st, n)
	}

	// A 200 whose choices array is empty.
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"chatcmpl-empty","object":"chat.completion","created":1767225600,"choices":[],"usage":{"prompt_tokens":1,"completion_tokens":0,"total_tokens":1}}`)
	}))
	defer empty.Close()
	bare, err := NewRemote(RemoteConfig{Endpoint: empty.URL, Counters: &Counters{}})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := bare.Complete(context.Background(), "q"); err == nil || !strings.Contains(err.Error(), "no choices") {
		t.Errorf("empty choices = %q, %v; want a no-choices error", out, err)
	}
	withFallback, err := NewRemote(RemoteConfig{Endpoint: empty.URL, Counters: &Counters{}, Fallback: llm.NewSim()})
	if err != nil {
		t.Fatal(err)
	}
	out, err := withFallback.Complete(context.Background(), simPrompt)
	want, _ := llm.NewSim().Complete(context.Background(), simPrompt)
	if err != nil || out != want {
		t.Errorf("empty choices with fallback = %q, %v; want sim's %q", out, err, want)
	}
}
