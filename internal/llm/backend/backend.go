// Package backend is the pluggable LLM layer behind the session
// factory. The paper's framework assumes a hosted model (GPT-4 via the
// OpenAI API) driving the Auto-GPT retrieval loop and the
// confidence-rated self-learning cycle (§2–3); the reproduction's
// default is the deterministic simulated model, but a production
// deployment must be able to swap in a real, failure-prone remote
// dependency without touching any construction site.
//
// Backends are resolved by name through a registry:
//
//	sim       the deterministic simulated model (the default; byte-
//	          identical to constructing llm.NewSim() directly)
//	ensemble  a majority-vote ensemble of simulated models (§5's
//	          multi-LLM direction)
//	remote    an OpenAI-compatible chat-completions client hardened for
//	          production traffic: per-request timeouts, bounded retries
//	          with backoff+jitter, a circuit breaker with sim fallback,
//	          a concurrency gate, an LRU response cache, singleflight
//	          coalescing of identical in-flight prompts and optional
//	          tail-latency request hedging (remote.go); one prompt per
//	          request, answered by the response's first choice
//
// Every entry point (bob, the repl, quizrunner, the eval harness,
// websimd) picks its model by name via session.Config.Model; unknown
// names fail with ErrUnknown, which the HTTP layer maps to 400 and the
// CLI maps to a usage error.
package backend

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
)

// ErrUnknown is returned when a model name has no registered backend.
// The HTTP layer maps it to 400 (code "unknown_model"); bob maps it to
// exit code 2.
var ErrUnknown = errors.New("backend: unknown model")

// DefaultName is the backend used when no model is selected.
const DefaultName = "sim"

// Environment variables configuring the remote backend. They are read
// at construction time (backend.New), not process start, so tests can
// set and unset them freely.
const (
	// EnvEndpoint is the base URL of the OpenAI-compatible service,
	// e.g. "http://127.0.0.1:8091/v1". The client POSTs to
	// <endpoint>/chat/completions.
	EnvEndpoint = "REPRO_LLM_ENDPOINT"
	// EnvAPIKey, when set, is sent as "Authorization: Bearer <key>".
	EnvAPIKey = "REPRO_LLM_API_KEY"
	// EnvUpstream is the upstream model name put in the request body
	// (default "gpt-4").
	EnvUpstream = "REPRO_LLM_MODEL"
	// EnvHedge enables tail-latency request hedging ("1", "true", "on").
	EnvHedge = "REPRO_LLM_HEDGE"
	// EnvHedgeDelay fixes the hedge trigger as a Go duration; unset or
	// zero means adaptive (tracked p99 of successful attempts).
	EnvHedgeDelay = "REPRO_LLM_HEDGE_DELAY"
)

// Options carries everything a factory may need to build its model.
// The zero value is valid: factories fall back to environment variables
// and built-in defaults.
type Options struct {
	// Endpoint overrides EnvEndpoint for the remote backend.
	Endpoint string
	// APIKey overrides EnvAPIKey.
	APIKey string
	// Upstream overrides EnvUpstream (the model name sent upstream).
	Upstream string
	// Hedge overrides EnvHedge: tail-latency request hedging.
	Hedge bool
	// HedgeDelay overrides EnvHedgeDelay: a fixed hedge trigger
	// (0 = adaptive p99).
	HedgeDelay time.Duration
	// Counters receives the remote client's instrumentation. Nil means
	// the process-wide default set, which Manager.Stats() reports.
	Counters *Counters
}

// optionsFromEnv resolves the remote-backend settings from the
// environment, leaving explicit Options fields untouched.
func (o Options) withEnv() Options {
	if o.Endpoint == "" {
		o.Endpoint = os.Getenv(EnvEndpoint)
	}
	if o.APIKey == "" {
		o.APIKey = os.Getenv(EnvAPIKey)
	}
	if o.Upstream == "" {
		o.Upstream = os.Getenv(EnvUpstream)
	}
	if !o.Hedge {
		switch strings.ToLower(os.Getenv(EnvHedge)) {
		case "1", "true", "on", "yes":
			o.Hedge = true
		}
	}
	if o.HedgeDelay == 0 {
		if d, err := time.ParseDuration(os.Getenv(EnvHedgeDelay)); err == nil && d > 0 {
			o.HedgeDelay = d
		}
	}
	return o
}

// Factory builds a model from resolved options.
type Factory func(Options) (llm.Model, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register installs a factory under name, replacing any previous one.
// The built-in backends (sim, ensemble, remote) are registered at init;
// tests and extensions may add more.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = f
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Known reports whether name resolves to a registered backend. The
// empty name is known: it means the default.
func Known(name string) bool {
	if name == "" {
		return true
	}
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// New resolves name (empty means DefaultName) and builds the model with
// environment-derived options — the path the session factory takes.
func New(name string) (llm.Model, error) {
	return NewWith(name, Options{})
}

// NewWith resolves name and builds the model with the given options
// (fields left zero fall back to the environment).
func NewWith(name string, opts Options) (llm.Model, error) {
	if name == "" {
		name = DefaultName
	}
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknown, name, strings.Join(Names(), ", "))
	}
	return f(opts.withEnv())
}

func init() {
	Register("sim", func(Options) (llm.Model, error) {
		return llm.NewSim(), nil
	})
	// ensemble is §5's multi-LLM direction as a deployable backend: a
	// conflict-aware pair plus a multimodal member, majority-voted. All
	// members are deterministic, so the backend is too.
	Register("ensemble", func(Options) (llm.Model, error) {
		return llm.NewEnsemble(
			llm.NewSim(),
			&llm.Sim{MaxBrowsesPerGoal: 3, Multimodal: true},
			llm.NewSim(),
		), nil
	})
	Register("remote", func(o Options) (llm.Model, error) {
		if o.Endpoint == "" {
			return nil, fmt.Errorf("backend: remote model needs an endpoint (set %s)", EnvEndpoint)
		}
		return NewRemote(RemoteConfig{
			Endpoint:   o.Endpoint,
			APIKey:     o.APIKey,
			Upstream:   o.Upstream,
			Hedge:      o.Hedge,
			HedgeDelay: o.HedgeDelay,
			Fallback:   llm.NewSim(),
			Counters:   o.Counters,
		})
	})
}

// Counters instruments the remote client. All fields are atomic so the
// hot path never takes a lock to count.
type Counters struct {
	requests     atomic.Int64
	retries      atomic.Int64
	failures     atomic.Int64
	breakerOpens atomic.Int64
	cacheHits    atomic.Int64
	fallbacks    atomic.Int64
	coalesced    atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
}

// Default is the process-wide counter set remote clients report into
// unless Options.Counters overrides it; Manager.Stats() exposes its
// snapshot for capacity planning.
var Default = &Counters{}

// Stats is a point-in-time snapshot of Counters, JSON-shaped for
// GET /v1/stats.
type Stats struct {
	// Requests counts completions attempted against the remote service
	// (cache hits and breaker-open fast failures not included).
	Requests int64 `json:"requests"`
	// Retries counts re-attempts after a retryable failure.
	Retries int64 `json:"retries"`
	// Failures counts completions that exhausted the remote path
	// (retries spent, breaker open, or a permanent error).
	Failures int64 `json:"failures"`
	// BreakerOpens counts closed/half-open → open transitions.
	BreakerOpens int64 `json:"breaker_opens"`
	// CacheHits counts completions served from the LRU response cache.
	CacheHits int64 `json:"cache_hits"`
	// Fallbacks counts completions served by the fallback (sim) model.
	Fallbacks int64 `json:"fallback_completions"`
	// Coalesced counts completions served by joining another caller's
	// identical in-flight request instead of going upstream.
	Coalesced int64 `json:"coalesced_completions"`
	// Hedges counts hedge attempts launched against slow requests.
	Hedges int64 `json:"hedged_attempts"`
	// HedgeWins counts hedged requests where the hedge finished first.
	HedgeWins int64 `json:"hedge_wins"`
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Requests:     c.requests.Load(),
		Retries:      c.retries.Load(),
		Failures:     c.failures.Load(),
		BreakerOpens: c.breakerOpens.Load(),
		CacheHits:    c.cacheHits.Load(),
		Fallbacks:    c.fallbacks.Load(),
		Coalesced:    c.coalesced.Load(),
		Hedges:       c.hedges.Load(),
		HedgeWins:    c.hedgeWins.Load(),
	}
}

// Snapshot returns the process-wide default counter snapshot.
func Snapshot() Stats { return Default.Snapshot() }
