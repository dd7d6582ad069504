// Package retrieval is the parallel evidence-acquisition tier: the
// fan-out engine behind every web round the agent runs. The paper's
// step-4 loop (knowledge testing → gap-directed retrieval) spends its
// wall time waiting on the web — one search per proposed query, one
// fetch per result — and long-horizon research agents get their
// throughput precisely from acquiring that evidence concurrently.
//
// The package splits a retrieval round into three phases:
//
//  1. Search fan-out: every proposed query runs concurrently through a
//     bounded worker pool (SearchAll); outcomes come back in query
//     order regardless of completion order.
//  2. Fetch planning: BuildPlan walks the outcomes in canonical
//     (query-order, rank-order) sequence and claims each distinct URL
//     for its first occurrence — a URL surfaced by two queries is
//     fetched once, not twice (the dedup counters record the savings).
//  3. Fetch fan-out: the planned unique URLs are fetched concurrently
//     (FetchAll), again with outcomes in plan order.
//
// Crucially, nothing here commits anything: callers replay the
// outcomes in canonical order into their memory store and events, so
// the committed output is byte-identical whether the round ran on one
// worker or sixteen. Transient web failures are captured per item —
// only context cancellation aborts a fan-out, and it surfaces exactly
// once, as the context's own error, after every in-flight worker has
// drained (parallel.Map joins its pool before returning).
package retrieval

import (
	"context"
	"runtime"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/websim"
)

// maxDefaultWorkers caps the default fan-out width: retrieval rounds
// are small (a handful of queries, a dozen fetches), so width past the
// round size buys nothing and width past a small constant just burns
// scheduler work on machines with many cores.
const maxDefaultWorkers = 8

// Workers resolves a configured worker count: n > 0 is used as-is, and
// n <= 0 selects the default width min(GOMAXPROCS, 8). The resolved
// count never affects committed output — only wall time — so the
// default may vary across machines without breaking reproducibility.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	w := runtime.GOMAXPROCS(0)
	if w > maxDefaultWorkers {
		w = maxDefaultWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Process-wide pipeline counters, surfaced through GET /v1/stats like
// the evidence/knowledge cache counters.
var counters struct {
	rounds           atomic.Int64
	searches         atomic.Int64
	fetches          atomic.Int64
	searchErrors     atomic.Int64
	fetchErrors      atomic.Int64
	searchesInFlight atomic.Int64
	fetchesInFlight  atomic.Int64
	dedupHits        atomic.Int64
	savedFetches     atomic.Int64
}

// Stats is a point-in-time snapshot of the pipeline counters,
// JSON-shaped for GET /v1/stats. Totals are cumulative for the
// process; the in-flight fields are live gauges and read 0 whenever no
// retrieval round is running.
type Stats struct {
	Rounds           int64 `json:"rounds"`
	Searches         int64 `json:"searches"`
	Fetches          int64 `json:"fetches"`
	SearchErrors     int64 `json:"search_errors"`
	FetchErrors      int64 `json:"fetch_errors"`
	SearchesInFlight int64 `json:"searches_in_flight"`
	FetchesInFlight  int64 `json:"fetches_in_flight"`
	DedupHits        int64 `json:"dedup_hits"`
	SavedFetches     int64 `json:"saved_fetches"`
}

// Snapshot returns the process-wide pipeline counters.
func Snapshot() Stats {
	return Stats{
		Rounds:           counters.rounds.Load(),
		Searches:         counters.searches.Load(),
		Fetches:          counters.fetches.Load(),
		SearchErrors:     counters.searchErrors.Load(),
		FetchErrors:      counters.fetchErrors.Load(),
		SearchesInFlight: counters.searchesInFlight.Load(),
		FetchesInFlight:  counters.fetchesInFlight.Load(),
		DedupHits:        counters.dedupHits.Load(),
		SavedFetches:     counters.savedFetches.Load(),
	}
}

// SearchOutcome is one query's result from a search fan-out. Err holds
// a captured transient failure (the query cost itself, not the round).
type SearchOutcome struct {
	Query   string
	Results []websim.Result
	Err     error
}

// FetchOutcome is one planned URL's result from a fetch fan-out.
type FetchOutcome struct {
	URL  string
	Page websim.Page
	Err  error
}

// SearchAll runs every query against web with at most workers
// concurrent requests and returns the outcomes in query order.
// Transient failures are captured in the outcome, never returned: the
// only error SearchAll itself returns is the context's, exactly once,
// after the worker pool has fully drained.
func SearchAll(ctx context.Context, web websim.Web, queries []string, k, workers int) ([]SearchOutcome, error) {
	counters.rounds.Add(1)
	outs, err := parallel.Map(ctx, workers, queries, func(ctx context.Context, _ int, q string) (SearchOutcome, error) {
		res, err := searchOne(ctx, web, q, k)
		if err != nil {
			if ce := ctx.Err(); ce != nil {
				// Cancellation, not a web failure: abort the fan-out with
				// the context's own error so the surfaced error does not
				// depend on which worker noticed first.
				return SearchOutcome{}, ce
			}
			return SearchOutcome{Query: q, Err: err}, nil
		}
		return SearchOutcome{Query: q, Results: res}, nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// FetchAll fetches every URL with at most workers concurrent requests
// and returns the outcomes in input order, with the same error
// contract as SearchAll: per-URL failures are captured, only the
// context's error aborts — once, after the pool drains.
func FetchAll(ctx context.Context, web websim.Web, urls []string, workers int) ([]FetchOutcome, error) {
	if len(urls) == 0 {
		return nil, ctx.Err()
	}
	outs, err := parallel.Map(ctx, workers, urls, func(ctx context.Context, _ int, url string) (FetchOutcome, error) {
		page, err := fetchOne(ctx, web, url)
		if err != nil {
			if ce := ctx.Err(); ce != nil {
				return FetchOutcome{}, ce
			}
			return FetchOutcome{URL: url, Err: err}, nil
		}
		return FetchOutcome{URL: url, Page: page}, nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// searchOne is one counted search request.
func searchOne(ctx context.Context, web websim.Web, query string, k int) ([]websim.Result, error) {
	counters.searchesInFlight.Add(1)
	defer counters.searchesInFlight.Add(-1)
	counters.searches.Add(1)
	res, err := web.Search(ctx, query, k)
	if err != nil && ctx.Err() == nil {
		counters.searchErrors.Add(1)
	}
	return res, err
}

// fetchOne is one counted fetch request.
func fetchOne(ctx context.Context, web websim.Web, url string) (websim.Page, error) {
	counters.fetchesInFlight.Add(1)
	defer counters.fetchesInFlight.Add(-1)
	counters.fetches.Add(1)
	page, err := web.Fetch(ctx, url)
	if err != nil && ctx.Err() == nil {
		counters.fetchErrors.Add(1)
	}
	return page, err
}

// Search runs one counted search outside a fan-out (the Auto-GPT
// google command), capturing any error — cancellation included — in
// the outcome, which is the command loop's contract: a failed command
// becomes a history line and the step loop decides whether to stop.
func Search(ctx context.Context, web websim.Web, query string, k int) SearchOutcome {
	res, err := searchOne(ctx, web, query, k)
	if err != nil {
		return SearchOutcome{Query: query, Err: err}
	}
	return SearchOutcome{Query: query, Results: res}
}

// Fetch runs one counted fetch outside a fan-out (the Auto-GPT
// browse_website command).
func Fetch(ctx context.Context, web websim.Web, url string) (websim.Page, error) {
	return fetchOne(ctx, web, url)
}

// Plan is the canonical fetch schedule for one retrieval round: every
// distinct URL across the search outcomes, ordered by first occurrence
// in (query-order, rank-order). Each URL is claimed by the slot that
// first surfaced it; later occurrences are dedup hits and are never
// fetched — their content would be rejected by the memory store's
// content-hash dedup anyway, so skipping the fetch changes no
// committed output, only the wasted traffic.
type Plan struct {
	// URLs are the distinct URLs to fetch, in claim order. Feed them to
	// FetchAll; outcome i corresponds to URLs[i].
	URLs []string
	// claims[qi][ri] is the index into URLs the slot claimed, or -1
	// when the slot's URL was already claimed by an earlier slot.
	claims [][]int
}

// BuildPlan derives the fetch plan from search outcomes, counting
// cross-query duplicates into the dedup/saved-fetch counters.
func BuildPlan(outs []SearchOutcome) Plan {
	p := Plan{claims: make([][]int, len(outs))}
	pos := make(map[string]int)
	var dups int64
	for qi, out := range outs {
		p.claims[qi] = make([]int, len(out.Results))
		for ri, res := range out.Results {
			if _, ok := pos[res.URL]; ok {
				p.claims[qi][ri] = -1
				dups++
				continue
			}
			pos[res.URL] = len(p.URLs)
			p.claims[qi][ri] = len(p.URLs)
			p.URLs = append(p.URLs, res.URL)
		}
	}
	if dups > 0 {
		counters.dedupHits.Add(dups)
		counters.savedFetches.Add(dups)
	}
	return p
}

// Claim returns the fetch index for slot (qi, ri) and whether the slot
// is the claimer. Slots whose URL was claimed earlier report false:
// they fetch nothing and commit nothing.
func (p Plan) Claim(qi, ri int) (int, bool) {
	i := p.claims[qi][ri]
	return i, i >= 0
}
