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
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/llm"
)

// ErrBreakerOpen is returned (when no fallback model is configured)
// while the circuit breaker is rejecting traffic.
var ErrBreakerOpen = errors.New("backend: circuit breaker open")

const (
	// breakerThreshold is the consecutive-failure run that opens the
	// circuit.
	breakerThreshold = 5
	// breakerCooldown is how long the breaker stays open before it
	// admits one half-open probe.
	breakerCooldown = 10 * time.Second
	// attemptTimeout bounds each individual attempt.
	attemptTimeout = 30 * time.Second
	// maxRetries is how many re-attempts follow a retryable failure, so
	// a completion makes up to maxRetries+1 attempts.
	maxRetries = 3
	// backoffBase seeds the exponential backoff schedule: re-attempt n
	// waits min(backoffBase<<n, backoffMax) scaled by jitter.
	backoffBase = 200 * time.Millisecond
	// backoffMax caps one backoff wait.
	backoffMax = 5 * time.Second
	// maxInFlight bounds concurrent upstream requests; excess callers
	// wait, honoring ctx.
	maxInFlight = 32
	// cacheSize bounds the prompt-keyed LRU response cache.
	cacheSize = 512
)

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
	// HedgeDelay, when positive, enables tail-latency hedging: an
	// attempt that outlives it is raced by a second identical attempt,
	// and the first response wins. Duplicated work trades for a shorter
	// tail. Zero disables hedging.
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
// transport errors (honoring Retry-After up to the backoff cap, and
// context cancellation), a half-open circuit breaker with optional
// fallback to the simulated model, a bounded in-flight gate, a
// prompt-keyed LRU response cache, singleflight coalescing of identical
// in-flight prompts, and optional fixed-delay request hedging. Each
// completion is one request carrying one user message; batching, where
// wanted, belongs to the server. All time is injected, so the failure
// and latency paths are testable with a fake clock.
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
	return &Remote{
		cfg:     cfg.withDefaults(),
		gate:    make(chan struct{}, maxInFlight),
		cache:   newPromptCache(cacheSize),
		flights: map[string]*flight{},
	}, nil
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
	if out, ok := r.cache.get(encodedPrompt); ok {
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
	admitted, probe := r.admit()
	if !admitted {
		// Breaker rejecting traffic: fail fast, degrading to the
		// fallback model when configured.
		r.cfg.Counters.failures.Add(1)
		return r.fallback(ctx, encodedPrompt, ErrBreakerOpen)
	}
	out, err := r.complete(ctx, encodedPrompt)
	if err != nil {
		// A cancellation is the caller's doing, not the remote's: it is
		// no failure, says nothing about the upstream's health, and
		// neither trips the fallback nor masks the cancellation. A
		// cancelled probe hands the probe to the next request.
		if errors.Is(ctx.Err(), context.Canceled) {
			if probe {
				r.releaseProbe()
			}
			return "", err
		}
		// A caller's deadline is not: an upstream that outlasts it (a
		// hang, a black hole) is failing, so it counts toward the
		// breaker, though the expired caller gets its deadline error
		// rather than a fallback.
		r.recordFailure()
		r.cfg.Counters.failures.Add(1)
		if ctx.Err() != nil {
			return "", err
		}
		return r.fallback(ctx, encodedPrompt, err)
	}
	r.recordSuccess()
	r.cache.put(encodedPrompt, out)
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

// admit runs the breaker's admission decision for one request, and
// reports whether the admitted request is the half-open probe.
func (r *Remote) admit() (admitted, probe bool) {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	switch r.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if r.cfg.Clock.Now().Sub(r.openedAt) < breakerCooldown {
			return false, false
		}
		// Cooldown over: this request becomes the half-open probe.
		r.state = breakerHalfOpen
		r.probeBusy = true
		return true, true
	default: // half-open
		if r.probeBusy {
			return false, false
		}
		r.probeBusy = true
		return true, true
	}
}

// releaseProbe frees the half-open probe slot of a probe that ended
// without a verdict on the upstream, so the next request probes.
func (r *Remote) releaseProbe() {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	r.probeBusy = false
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
// it immediately, a closed-state failure run of breakerThreshold opens
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
		if r.failRun >= breakerThreshold {
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

// complete runs the attempt/retry loop for one prompt. Each attempt
// holds a slot of the concurrency gate; a backoff or Retry-After wait
// between attempts holds none, so callers told to wait never stall
// calls that could go out.
func (r *Remote) complete(ctx context.Context, prompt string) (string, error) {
	for attempt := 0; ; attempt++ {
		out, err := r.gatedAttempt(ctx, prompt)
		if err == nil {
			return out, nil
		}
		var re *retryableError
		if !errors.As(err, &re) || attempt >= maxRetries {
			return "", err
		}
		// The server's wait, capped at backoffMax: an upstream cannot park
		// a call for longer than the client's own backoff would.
		wait := min(re.retryAfter, backoffMax)
		if wait <= 0 {
			wait = r.backoff(attempt)
		}
		if err := r.cfg.Clock.Sleep(ctx, wait); err != nil {
			return "", err // cancelled mid-retry
		}
		r.cfg.Counters.retries.Add(1)
	}
}

// gatedAttempt runs one logical attempt under one slot of the
// concurrency gate, which a primary request and its hedge share.
func (r *Remote) gatedAttempt(ctx context.Context, prompt string) (string, error) {
	select {
	case r.gate <- struct{}{}:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	defer func() { <-r.gate }()
	return r.attemptHedged(ctx, prompt)
}

// attemptHedged runs one logical attempt. With a positive HedgeDelay, a
// slow primary request is raced by an identical hedge launched after
// that delay; the first result (success or, once both are in, the
// primary's failure) wins and the loser's context is cancelled.
func (r *Remote) attemptHedged(ctx context.Context, prompt string) (string, error) {
	if r.cfg.HedgeDelay <= 0 {
		r.cfg.Counters.requests.Add(1)
		return r.attempt(ctx, prompt)
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
			out, err := r.attempt(actx, prompt)
			results <- result{out, err, hedge}
		}()
	}
	launch(false)
	hedgeTimer := make(chan struct{}, 1)
	go func() {
		if r.cfg.Clock.Sleep(actx, r.cfg.HedgeDelay) == nil {
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

// backoff computes the wait before re-attempt number attempt (0-based):
// exponential growth from backoffBase capped at backoffMax, scaled by
// jitter into [d/2, d) so synchronized clients fan out.
func (r *Remote) backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	half := d / 2
	return half + time.Duration(float64(half)*r.cfg.Jitter())
}

// attempt runs one HTTP round trip under the per-attempt timeout and
// classifies the outcome: success, retryable (429/5xx/transport), or
// permanent. The request is a one-message conversation; the reply is
// its first choice.
func (r *Remote) attempt(ctx context.Context, prompt string) (string, error) {
	actx, cancel := context.WithTimeout(ctx, attemptTimeout)
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
