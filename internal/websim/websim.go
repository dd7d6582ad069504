// Package websim simulates the web the agent investigates: a search
// engine over the synthetic corpus plus page fetching, with the access
// limitations the paper reports (social sites unreachable to Auto-GPT,
// the source research paper never served). The engine can be used
// in-process or served over real HTTP (see http.go), in which case the
// agent exercises an actual network client.
//
// # Concurrency contract
//
// A single Engine is safe for concurrent Search/Fetch/Publish: the
// traffic counters are atomic and the document tables and indexes are
// lock-protected. Two caveats matter when agents run in parallel:
//
//   - The failure-injection sequence (Options.FailureRate) and the Stats
//     counters are per-engine. Agents sharing one engine interleave both,
//     so which request fails — and each agent's apparent traffic — then
//     depends on goroutine scheduling. Parallel experiments that need
//     deterministic, per-agent behaviour must give each agent its own
//     Fork: forks share the built indexes (copy-on-write) but carry
//     independent counters and failure sequences.
//   - Publish on a shared engine is visible to every agent using it. A
//     Fork isolates mutation too: publishing into a fork clones the
//     shared state first, so the base engine and sibling forks never see
//     the change.
package websim

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
)

// Result is one search hit.
type Result struct {
	URL     string  `json:"url"`
	Title   string  `json:"title"`
	Site    string  `json:"site"`
	Snippet string  `json:"snippet"`
	Score   float64 `json:"score"`
	DocID   string  `json:"doc_id"`
}

// Page is a fetched document.
type Page struct {
	URL   string `json:"url"`
	Title string `json:"title"`
	Body  string `json:"body"`
	Site  string `json:"site"`
}

// Web is the interface the agent programs against; Engine implements it
// in-process and Client implements it over HTTP.
type Web interface {
	// Search returns up to k ranked results for the query.
	Search(ctx context.Context, query string, k int) ([]Result, error)
	// Fetch returns the full page at the given URL.
	Fetch(ctx context.Context, url string) (Page, error)
}

// Errors returned by the engine.
var (
	// ErrUnsupportedSite is returned when fetching a social site without
	// the crawler extension — the Auto-GPT limitation the paper reports.
	ErrUnsupportedSite = errors.New("websim: site requires the crawler extension")
	// ErrForbidden is returned for restricted documents (the source
	// research paper), which are never served.
	ErrForbidden = errors.New("websim: access forbidden")
	// ErrNotFound is returned for unknown URLs.
	ErrNotFound = errors.New("websim: page not found")
	// ErrTransient simulates a transient server failure (a 503); the
	// failure-injection option returns it on a deterministic fraction of
	// requests so that agent resilience can be tested.
	ErrTransient = errors.New("websim: transient failure")
)

// Clock abstracts the latency timer so pipeline latency tests can run
// fake-clock deterministic under -race, matching the backend.Remote
// pattern. A nil Clock uses a real timer.
type Clock interface {
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// Options configures engine behaviour.
type Options struct {
	// EnableSocial makes the search engine index and serve social
	// documents (the paper's planned "integrated online crawler").
	EnableSocial bool
	// MaxResults caps results per query (default 8).
	MaxResults int
	// Latency is the simulated per-request latency (default 0).
	Latency time.Duration
	// Clock, when set, times the simulated latency instead of a real
	// timer — injected by tests so latency pipelines run deterministic
	// and instant. Never serialized; a restored engine gets a real
	// timer again.
	Clock Clock `json:"-"`
	// Ranking selects the search ranking function (default BM25).
	Ranking index.Ranking
	// FailureRate injects deterministic transient failures: that
	// fraction of requests (0..1) returns ErrTransient. The failing
	// request positions depend only on the request sequence, so runs
	// remain reproducible.
	FailureRate float64
}

// Stats counts engine traffic; read with atomic loads via the accessor.
type Stats struct {
	Queries int64 `json:"queries"`
	Fetches int64 `json:"fetches"`
	Denied  int64 `json:"denied"`
}

// Engine is the in-process simulated web.
type Engine struct {
	opts Options

	// mu guards the index pointers, the document tables, and the shared
	// flag. The indexes and maps themselves are copy-on-write: while
	// shared is true they may be referenced by other forks and must not
	// be mutated — Publish clones them first (see unshareLocked).
	mu     sync.RWMutex
	main   *index.Index
	social *index.Index
	byURL  map[string]corpus.Document
	byID   map[string]corpus.Document
	shared bool

	queries  atomic.Int64
	fetches  atomic.Int64
	denied   atomic.Int64
	requests atomic.Int64 // failure-injection sequence counter
}

// failNow deterministically decides whether the current request fails,
// by hashing the request sequence number: request n fails iff
// hash(n) mod 1e6 < rate*1e6.
func (e *Engine) failNow() bool {
	if e.opts.FailureRate <= 0 {
		return false
	}
	n := uint64(e.requests.Add(1))
	n ^= n >> 33
	n *= 0xff51afd7ed558ccd
	n ^= n >> 33
	return float64(n%1_000_000) < e.opts.FailureRate*1_000_000
}

// NewEngine indexes the corpus under the given options.
func NewEngine(c *corpus.Corpus, opts Options) *Engine {
	if opts.MaxResults <= 0 {
		opts.MaxResults = 8
	}
	e := &Engine{
		opts:   opts,
		main:   index.New(),
		social: index.New(),
		byURL:  map[string]corpus.Document{},
		byID:   map[string]corpus.Document{},
	}
	for _, d := range c.Docs {
		e.byURL[d.URL] = d
		e.byID[d.ID] = d
		e.indexDoc(d)
	}
	return e
}

// Fork returns a copy-on-write view of the engine: it shares the built
// indexes and document tables with the receiver until either side
// publishes, but carries its own serve-time options and its own traffic
// and failure-injection counters. Forking is how the eval stack shares
// one expensively built world across experiments and parallel agents —
// a fork costs two map-header copies, not a corpus re-index.
//
// Only the serve-time options (MaxResults, Latency, Ranking,
// FailureRate) may differ between a fork and its base: EnableSocial
// changes which index each document lives in, so changing it requires
// building a fresh engine. Fork panics on a mismatch to surface the
// programming error immediately.
func (e *Engine) Fork(opts Options) *Engine {
	if opts.MaxResults <= 0 {
		opts.MaxResults = 8
	}
	if opts.EnableSocial != e.opts.EnableSocial {
		panic("websim: Fork cannot change EnableSocial; build a new engine instead")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shared = true
	return &Engine{
		opts:   opts,
		main:   e.main,
		social: e.social,
		byURL:  e.byURL,
		byID:   e.byID,
		shared: true,
	}
}

// unshareLocked clones the shared indexes and document tables so the
// engine exclusively owns its state. Caller holds the write lock.
func (e *Engine) unshareLocked() {
	if !e.shared {
		return
	}
	e.byURL = maps.Clone(e.byURL)
	e.byID = maps.Clone(e.byID)
	e.main = e.main.Clone()
	e.social = e.social.Clone()
	e.shared = false
}

// indexDoc routes a document to the right index. Social documents join
// the main index only when the crawler extension is enabled, so that
// social and non-social hits rank on a comparable scale; restricted
// documents are never indexed.
func (e *Engine) indexDoc(d corpus.Document) {
	switch d.Source {
	case corpus.SourceRestricted:
		// never indexed
	case corpus.SourceSocial:
		if e.opts.EnableSocial {
			e.main.Add(index.Doc{ID: d.ID, Title: d.Title, Body: d.Body, Tags: d.Topics})
		} else {
			e.social.Add(index.Doc{ID: d.ID, Title: d.Title, Body: d.Body, Tags: d.Topics})
		}
	default:
		e.main.Add(index.Doc{ID: d.ID, Title: d.Title, Body: d.Body, Tags: d.Topics})
	}
}

// Stats returns a snapshot of traffic counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Queries: e.queries.Load(),
		Fetches: e.fetches.Load(),
		Denied:  e.denied.Load(),
	}
}

func (e *Engine) sleep(ctx context.Context) error {
	if e.opts.Latency <= 0 {
		return ctx.Err()
	}
	if e.opts.Clock != nil {
		return e.opts.Clock.Sleep(ctx, e.opts.Latency)
	}
	t := time.NewTimer(e.opts.Latency)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Search implements Web. With EnableSocial, social hits are merged into
// the ranking by score.
func (e *Engine) Search(ctx context.Context, query string, k int) ([]Result, error) {
	if err := e.sleep(ctx); err != nil {
		return nil, err
	}
	if e.failNow() {
		return nil, fmt.Errorf("%w: search %q", ErrTransient, query)
	}
	e.queries.Add(1)
	if k <= 0 || k > e.opts.MaxResults {
		k = e.opts.MaxResults
	}
	// Snapshot the index pointer under the lock: a concurrent Publish on
	// this fork may swap it for a private clone (copy-on-write).
	e.mu.RLock()
	main := e.main
	e.mu.RUnlock()
	hits := main.SearchRanked(query, k, e.opts.Ranking)
	out := make([]Result, 0, len(hits))
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, h := range hits {
		d := e.byID[h.ID]
		out = append(out, Result{
			URL:     d.URL,
			Title:   d.Title,
			Site:    d.Site,
			Snippet: h.Snippet,
			Score:   h.Score,
			DocID:   d.ID,
		})
	}
	return out, nil
}

// Fetch implements Web, enforcing the source-gating rules.
func (e *Engine) Fetch(ctx context.Context, url string) (Page, error) {
	if err := e.sleep(ctx); err != nil {
		return Page{}, err
	}
	if e.failNow() {
		return Page{}, fmt.Errorf("%w: fetch %s", ErrTransient, url)
	}
	e.fetches.Add(1)
	e.mu.RLock()
	d, ok := e.byURL[url]
	e.mu.RUnlock()
	if !ok {
		return Page{}, fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	switch d.Source {
	case corpus.SourceRestricted:
		e.denied.Add(1)
		return Page{}, fmt.Errorf("%w: %s", ErrForbidden, url)
	case corpus.SourceSocial:
		if !e.opts.EnableSocial {
			e.denied.Add(1)
			return Page{}, fmt.Errorf("%w: %s", ErrUnsupportedSite, url)
		}
	}
	return Page{URL: d.URL, Title: d.Title, Body: d.Body, Site: d.Site}, nil
}

// Publish adds a new document to the live engine (used by the drift and
// spam scenarios, failure-injection tests and long-running servers). On
// a forked engine the first Publish triggers the copy-on-write clone, so
// the mutation is never visible to the base engine or to sibling forks.
func (e *Engine) Publish(d corpus.Document) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.unshareLocked()
	e.byURL[d.URL] = d
	e.byID[d.ID] = d
	e.indexDoc(d)
}
