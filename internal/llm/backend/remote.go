package backend

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/llm"
)

// ErrBreakerOpen is returned (when no fallback model is configured)
// while the circuit breaker is rejecting traffic.
var ErrBreakerOpen = errors.New("backend: circuit breaker open")

// Clock abstracts time for the remote client so every failure path —
// backoff schedules, Retry-After waits, breaker cooldowns — is
// deterministically testable with a fake clock and no real sleeps.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RemoteConfig configures a Remote client. Zero fields take the
// defaults documented per field.
type RemoteConfig struct {
	// Endpoint is the base URL of the OpenAI-compatible service; the
	// client POSTs to <Endpoint>/chat/completions. Required.
	Endpoint string
	// APIKey, when set, is sent as a bearer token.
	APIKey string
	// Upstream is the model name sent in the request body (default
	// "gpt-4", the paper's model).
	Upstream string
	// Timeout bounds each individual attempt (default 30s).
	Timeout time.Duration
	// MaxRetries is how many re-attempts follow a retryable failure
	// (default 3, so up to 4 attempts total).
	MaxRetries int
	// BackoffBase seeds the exponential backoff schedule: attempt n
	// waits min(BackoffBase<<n, BackoffMax) scaled by jitter (default
	// 200ms).
	BackoffBase time.Duration
	// BackoffMax caps one backoff wait (default 5s).
	BackoffMax time.Duration
	// BreakerThreshold is the consecutive-failure run that opens the
	// circuit (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// admitting one half-open probe (default 10s).
	BreakerCooldown time.Duration
	// MaxInFlight bounds concurrent upstream requests; excess callers
	// wait, honoring ctx (default 32).
	MaxInFlight int
	// CacheSize bounds the prompt-keyed LRU response cache; 0 takes the
	// default (512), negative disables caching.
	CacheSize int
	// Hedge enables tail-latency hedging: when an attempt outlives the
	// hedge delay, a second identical attempt races it and the first
	// response wins. Duplicated work trades for a shorter tail.
	Hedge bool
	// HedgeDelay fixes the hedge trigger. 0 means adaptive: the tracked
	// p99 of recent successful attempts (no hedging until enough
	// history exists).
	HedgeDelay time.Duration
	// Fallback, when set, serves completions whenever the remote path
	// fails — breaker open, retries exhausted, or a permanent error —
	// so the agent degrades to the simulated model instead of erroring.
	Fallback llm.Model
	// Client is the HTTP client (default http.DefaultClient); tests
	// inject scripted transports here.
	Client *http.Client
	// Clock injects time (default the real clock).
	Clock Clock
	// Jitter yields values in [0,1) scaling each backoff wait into
	// [d/2, d) (default math/rand; tests pin it).
	Jitter func() float64
	// Counters receives instrumentation (default the package-wide set).
	Counters *Counters
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.Upstream == "" {
		c.Upstream = "gpt-4"
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 200 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.Jitter == nil {
		c.Jitter = rand.Float64
	}
	if c.Counters == nil {
		c.Counters = Default
	}
	return c
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Remote is an OpenAI-compatible chat-completions client implementing
// llm.Model, hardened for production traffic: per-attempt timeouts,
// bounded retries with exponential backoff + jitter on 429/5xx and
// transport errors (honoring Retry-After and context cancellation), a
// half-open circuit breaker with optional fallback to the simulated
// model, a bounded in-flight gate, a prompt-keyed LRU response cache,
// singleflight coalescing of identical in-flight prompts, and optional
// tail-latency request hedging. Each completion is one request carrying
// one user message; batching, where wanted, belongs to the server. All
// time is injected, so the failure and latency paths are testable with
// a fake clock.
type Remote struct {
	cfg  RemoteConfig
	gate chan struct{}

	// bmu guards the breaker state machine.
	bmu       sync.Mutex
	state     int
	failRun   int       // consecutive failures while closed
	openedAt  time.Time // when the breaker last opened
	probeBusy bool      // a half-open probe is in flight

	cache *promptCache

	// fmu guards flights: identical prompts in flight at once coalesce
	// onto one upstream request (singleflight).
	fmu     sync.Mutex
	flights map[string]*flight

	// lat tracks successful-attempt latency for the adaptive hedge
	// trigger.
	lat *latencyTracker
}

// flight is one in-progress completion that identical callers join.
type flight struct {
	done chan struct{}
	out  string
	err  error
}

// NewRemote builds a Remote client. It fails fast on a missing
// endpoint so misconfiguration surfaces at construction, not first use.
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	if strings.TrimSpace(cfg.Endpoint) == "" {
		return nil, fmt.Errorf("backend: remote endpoint is required")
	}
	cfg = cfg.withDefaults()
	r := &Remote{
		cfg:     cfg,
		gate:    make(chan struct{}, cfg.MaxInFlight),
		flights: map[string]*flight{},
		lat:     newLatencyTracker(latencyWindow),
	}
	if cfg.CacheSize > 0 {
		r.cache = newPromptCache(cfg.CacheSize)
	}
	return r, nil
}

// chat-completions wire types (the OpenAI-compatible subset we use).
type chatRequest struct {
	Model    string        `json:"model"`
	Messages []chatMessage `json:"messages"`
}

type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type chatResponse struct {
	Choices []struct {
		Message chatMessage `json:"message"`
	} `json:"choices"`
	Error *struct {
		Message string `json:"message"`
	} `json:"error,omitempty"`
}

// Complete implements llm.Model. Identical prompts in flight at once
// coalesce onto one upstream request: followers wait for the leader's
// result instead of spending their own.
func (r *Remote) Complete(ctx context.Context, encodedPrompt string) (string, error) {
	if out, ok := r.cacheGet(encodedPrompt); ok {
		r.cfg.Counters.cacheHits.Add(1)
		return out, nil
	}
	for {
		r.fmu.Lock()
		if f, ok := r.flights[encodedPrompt]; ok {
			r.fmu.Unlock()
			r.cfg.Counters.coalesced.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return "", ctx.Err()
			}
			if f.err == nil {
				return f.out, nil
			}
			// The leader's failure was its own cancellation, not the
			// upstream's: a still-live follower retries with a flight of
			// its own rather than inheriting someone else's ctx error.
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				if ctx.Err() != nil {
					return "", ctx.Err()
				}
				continue
			}
			return "", f.err
		}
		f := &flight{done: make(chan struct{})}
		r.flights[encodedPrompt] = f
		r.fmu.Unlock()
		f.out, f.err = r.completeOne(ctx, encodedPrompt)
		r.fmu.Lock()
		delete(r.flights, encodedPrompt)
		r.fmu.Unlock()
		close(f.done)
		return f.out, f.err
	}
}

// completeOne runs one (uncoalesced) completion through the breaker.
func (r *Remote) completeOne(ctx context.Context, encodedPrompt string) (string, error) {
	if !r.admit() {
		// Breaker rejecting traffic: fail fast, degrading to the
		// fallback model when configured.
		r.cfg.Counters.failures.Add(1)
		return r.fallback(ctx, encodedPrompt, ErrBreakerOpen)
	}
	out, err := r.complete(ctx, encodedPrompt)
	if err != nil {
		r.recordFailure()
		r.cfg.Counters.failures.Add(1)
		// Context cancellation is the caller's doing, not the remote's:
		// it neither trips the fallback nor masks the cancellation.
		if ctx.Err() != nil {
			return "", err
		}
		return r.fallback(ctx, encodedPrompt, err)
	}
	r.recordSuccess()
	r.cachePut(encodedPrompt, out)
	return out, nil
}

// fallback serves the completion from the configured fallback model, or
// returns cause when there is none.
func (r *Remote) fallback(ctx context.Context, encodedPrompt string, cause error) (string, error) {
	if r.cfg.Fallback == nil {
		return "", cause
	}
	out, err := r.cfg.Fallback.Complete(ctx, encodedPrompt)
	if err != nil {
		return "", fmt.Errorf("backend: fallback after %v: %w", cause, err)
	}
	r.cfg.Counters.fallbacks.Add(1)
	return out, nil
}

// admit runs the breaker's admission decision for one request.
func (r *Remote) admit() bool {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	switch r.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if r.cfg.Clock.Now().Sub(r.openedAt) < r.cfg.BreakerCooldown {
			return false
		}
		// Cooldown over: this request becomes the half-open probe.
		r.state = breakerHalfOpen
		r.probeBusy = true
		return true
	default: // half-open
		if r.probeBusy {
			return false
		}
		r.probeBusy = true
		return true
	}
}

// recordSuccess closes the breaker.
func (r *Remote) recordSuccess() {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	r.state = breakerClosed
	r.failRun = 0
	r.probeBusy = false
}

// recordFailure advances the breaker: a failed half-open probe reopens
// it immediately, a closed-state failure run of BreakerThreshold opens
// it.
func (r *Remote) recordFailure() {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	switch r.state {
	case breakerHalfOpen:
		r.state = breakerOpen
		r.openedAt = r.cfg.Clock.Now()
		r.probeBusy = false
		r.cfg.Counters.breakerOpens.Add(1)
	case breakerClosed:
		r.failRun++
		if r.failRun >= r.cfg.BreakerThreshold {
			r.state = breakerOpen
			r.openedAt = r.cfg.Clock.Now()
			r.failRun = 0
			r.cfg.Counters.breakerOpens.Add(1)
		}
	}
}

// retryableError is a transient failure carrying the server's requested
// wait, if any.
type retryableError struct {
	err        error
	retryAfter time.Duration // 0 = use the backoff schedule
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// complete runs the attempt/retry loop for one prompt under the
// concurrency gate.
func (r *Remote) complete(ctx context.Context, prompt string) (string, error) {
	select {
	case r.gate <- struct{}{}:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	defer func() { <-r.gate }()

	for attempt := 0; ; attempt++ {
		out, err := r.attemptHedged(ctx, prompt)
		if err == nil {
			return out, nil
		}
		var re *retryableError
		if !errors.As(err, &re) || attempt >= r.cfg.MaxRetries {
			return "", err
		}
		wait := re.retryAfter
		if wait <= 0 {
			wait = r.backoff(attempt)
		}
		if err := r.cfg.Clock.Sleep(ctx, wait); err != nil {
			return "", err // cancelled mid-retry
		}
		r.cfg.Counters.retries.Add(1)
	}
}

// attemptHedged runs one logical attempt. With hedging enabled, a slow
// primary request is raced by an identical hedge launched after the
// hedge delay; the first result (success or, once both are in, the
// primary's failure) wins and the loser's context is cancelled.
func (r *Remote) attemptHedged(ctx context.Context, prompt string) (string, error) {
	if !r.cfg.Hedge {
		r.cfg.Counters.requests.Add(1)
		return r.timedAttempt(ctx, prompt)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		out   string
		err   error
		hedge bool
	}
	results := make(chan result, 2)
	launch := func(hedge bool) {
		r.cfg.Counters.requests.Add(1)
		go func() {
			out, err := r.timedAttempt(actx, prompt)
			results <- result{out, err, hedge}
		}()
	}
	launch(false)
	hedgeTimer := make(chan struct{}, 1)
	go func() {
		if r.cfg.Clock.Sleep(actx, r.hedgeDelay()) == nil {
			hedgeTimer <- struct{}{}
		}
	}()
	inFlight := 1
	var firstErr error
	for {
		select {
		case res := <-results:
			inFlight--
			if res.err == nil {
				if res.hedge {
					r.cfg.Counters.hedgeWins.Add(1)
				}
				return res.out, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if inFlight == 0 {
				return "", firstErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil // fires at most once
			r.cfg.Counters.hedges.Add(1)
			launch(true)
			inFlight++
		}
	}
}

// timedAttempt is attempt plus latency tracking: successful attempts
// feed the p99 estimate the adaptive hedge trigger uses.
func (r *Remote) timedAttempt(ctx context.Context, prompt string) (string, error) {
	start := r.cfg.Clock.Now()
	out, err := r.attempt(ctx, prompt)
	if err == nil {
		r.lat.record(r.cfg.Clock.Now().Sub(start))
	}
	return out, err
}

// hedgeDelay resolves how long the primary attempt runs before a hedge
// races it: the fixed override when set, else the tracked p99. With too
// little history the delay equals the attempt timeout, i.e. hedging
// stays dormant until the tracker warms up.
func (r *Remote) hedgeDelay() time.Duration {
	if r.cfg.HedgeDelay > 0 {
		return r.cfg.HedgeDelay
	}
	if d, ok := r.lat.p99(); ok {
		if d < hedgeMinDelay {
			return hedgeMinDelay
		}
		return d
	}
	return r.cfg.Timeout
}

// Adaptive hedging support: the trigger for racing a second request is
// "the primary has outlived what the p99 of recent successes says it
// should take".
const (
	// latencyWindow is how many recent successful-attempt latencies the
	// tracker retains.
	latencyWindow = 128
	// hedgeMinSamples is how much history the adaptive trigger needs
	// before hedging activates.
	hedgeMinSamples = 16
	// hedgeMinDelay floors the adaptive trigger so an ultra-fast
	// upstream is not hedged on every request.
	hedgeMinDelay = time.Millisecond
)

// latencyTracker is a fixed-size ring of recent successful-attempt
// latencies with a quantile view over the retained window.
type latencyTracker struct {
	mu  sync.Mutex
	buf []time.Duration
	idx int
	n   int64 // total recorded, for the warm-up gate
}

func newLatencyTracker(size int) *latencyTracker {
	return &latencyTracker{buf: make([]time.Duration, 0, size)}
}

func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, d)
	} else {
		t.buf[t.idx] = d
		t.idx = (t.idx + 1) % cap(t.buf)
	}
	t.n++
}

// p99 returns the 99th-percentile latency over the retained window and
// whether enough samples exist to trust it.
func (t *latencyTracker) p99() (time.Duration, bool) {
	t.mu.Lock()
	if t.n < hedgeMinSamples {
		t.mu.Unlock()
		return 0, false
	}
	s := append([]time.Duration(nil), t.buf...)
	t.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := len(s) * 99 / 100
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i], true
}

// backoff computes the wait before re-attempt number attempt (0-based):
// exponential growth from BackoffBase capped at BackoffMax, scaled by
// jitter into [d/2, d) so synchronized clients fan out.
func (r *Remote) backoff(attempt int) time.Duration {
	d := r.cfg.BackoffBase
	for i := 0; i < attempt && d < r.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > r.cfg.BackoffMax {
		d = r.cfg.BackoffMax
	}
	half := d / 2
	return half + time.Duration(float64(half)*r.cfg.Jitter())
}

// attempt runs one HTTP round trip under the per-attempt timeout and
// classifies the outcome: success, retryable (429/5xx/transport), or
// permanent. The request is a one-message conversation; the reply is
// its first choice.
func (r *Remote) attempt(ctx context.Context, prompt string) (string, error) {
	actx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()

	body, err := json.Marshal(chatRequest{
		Model:    r.cfg.Upstream,
		Messages: []chatMessage{{Role: "user", Content: prompt}},
	})
	if err != nil {
		return "", fmt.Errorf("backend: encode request: %w", err)
	}
	url := strings.TrimSuffix(r.cfg.Endpoint, "/") + "/chat/completions"
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("backend: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if r.cfg.APIKey != "" {
		req.Header.Set("Authorization", "Bearer "+r.cfg.APIKey)
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		// The caller cancelled: not retryable, surface the cancellation.
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		// Everything else — refused connections, attempt timeouts
		// (hangs), resets — is transport-level and worth retrying.
		return "", &retryableError{err: fmt.Errorf("backend: %w", err)}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 10<<20))
	if err != nil {
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		return "", &retryableError{err: fmt.Errorf("backend: read response: %w", err)}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		// parsed below
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return "", &retryableError{
			err:        fmt.Errorf("backend: upstream %s: %s", resp.Status, clipBody(data)),
			retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), r.cfg.Clock.Now()),
		}
	default:
		return "", fmt.Errorf("backend: upstream %s: %s", resp.Status, clipBody(data))
	}
	var cr chatResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return "", fmt.Errorf("backend: parse response: %w", err)
	}
	if cr.Error != nil {
		return "", fmt.Errorf("backend: upstream error: %s", cr.Error.Message)
	}
	if len(cr.Choices) == 0 {
		return "", errors.New("backend: upstream returned no choices")
	}
	return cr.Choices[0].Message.Content, nil
}

// parseRetryAfter honors both Retry-After forms: delta-seconds and an
// HTTP date (relative to now). Unparseable or past values yield 0,
// which falls back to the backoff schedule.
func parseRetryAfter(h string, now time.Time) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

func clipBody(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// CountersSnapshot returns this client's counter snapshot (which may be
// the shared default set).
func (r *Remote) CountersSnapshot() Stats { return r.cfg.Counters.Snapshot() }

func (r *Remote) cacheGet(key string) (string, bool) {
	if r.cache == nil {
		return "", false
	}
	return r.cache.get(key)
}

func (r *Remote) cachePut(key, val string) {
	if r.cache != nil {
		r.cache.put(key, val)
	}
}

// promptCache is a small mutex-guarded LRU keyed by encoded prompt.
// The simulated world is deterministic and real chat-completions calls
// are expensive, so identical prompts (retries of the same question,
// re-asked FAQs across sessions) should hit the wire once.
type promptCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent; values are *cacheEntry
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key, val string
}

func newPromptCache(max int) *promptCache {
	return &promptCache{max: max, order: list.New(), byKey: map[string]*list.Element{}}
}

func (c *promptCache) get(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return "", false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *promptCache) put(key, val string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	if c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}
