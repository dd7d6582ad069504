package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/evalcache"
	"repro/internal/llm"
	"repro/internal/llm/backend"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/retrieval"
	"repro/internal/stream"
)

// CreateRequest is the body of POST /v1/sessions. Unset pointer fields
// fall back to the manager's default Config; a non-empty Incident
// selects the incident-analyst role instead of Bob; Model selects the
// LLM backend by name ("sim", "ensemble", "remote") — unknown names
// fail with 400 (code "unknown_model").
type CreateRequest struct {
	ID        string  `json:"id,omitempty"`
	Seed      *uint64 `json:"seed,omitempty"`
	Social    *bool   `json:"social,omitempty"`
	Threshold int     `json:"threshold,omitempty"`
	MaxRounds int     `json:"max_rounds,omitempty"`
	Incident  string  `json:"incident,omitempty"`
	Model     string  `json:"model,omitempty"`
	// Train runs initial goal training before the response is sent.
	Train bool `json:"train,omitempty"`
}

// Limits on a create request's agent settings. Confidence runs 0-10, so
// a higher threshold is never met; maxRoundsLimit is four times the
// default round budget (agent.Config.MaxRounds). Zero means the default
// for both.
const (
	maxThreshold   = 10
	maxRoundsLimit = 16
)

// CreateResponse is the reply to POST /sessions.
type CreateResponse struct {
	Status
	Train *agent.TrainReport `json:"train,omitempty"`
}

// QuestionRequest is the body of ask/learn/report calls.
type QuestionRequest struct {
	Question string `json:"question"`
}

// PlanRequest is the body of POST /sessions/{id}/plan.
type PlanRequest struct {
	Scenario string `json:"scenario,omitempty"`
}

// PlanResponse is the reply to POST /sessions/{id}/plan.
type PlanResponse struct {
	Items []agent.PlanItem `json:"items"`
}

// ReportResponse is the reply to POST /sessions/{id}/report.
type ReportResponse struct {
	Markdown      string              `json:"markdown"`
	Investigation agent.Investigation `json:"investigation"`
}

// SnapshotResponse is the reply to POST /sessions/{id}/snapshot.
type SnapshotResponse struct {
	Path string `json:"path"`
}

// ListPage is the shared paginated list envelope every /v1 collection
// endpoint returns: {"items":[...],"next":"<cursor>"}. Ordering is
// deterministic (ascending key), the `after` cursor is exclusive, and
// `next` is present only when more items remain — pass it back as
// ?after= to continue.
type ListPage[T any] struct {
	Items []T    `json:"items"`
	Next  string `json:"next,omitempty"`
}

// Pagination limits for the shared ?limit=&after= contract.
const (
	// DefaultPageLimit applies when ?limit= is absent or 0.
	DefaultPageLimit = 100
	// MaxPageLimit caps any requested ?limit=.
	MaxPageLimit = 1000
)

// PageArgs extracts the shared ?limit=&after= pagination arguments.
// A malformed or non-positive limit is a bad_request error.
func PageArgs(r *http.Request) (after string, limit int, err error) {
	after = r.URL.Query().Get("after")
	limit = DefaultPageLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n <= 0 {
			return "", 0, fmt.Errorf("bad limit %q (want a positive integer)", v)
		}
		limit = n
	}
	if limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	return after, limit, nil
}

// Paginate slices an ascending-key item list into one ListPage: items
// with key strictly greater than after, at most limit of them, and the
// next cursor when the list continues past the page.
func Paginate[T any](items []T, key func(T) string, after string, limit int) ListPage[T] {
	start := 0
	if after != "" {
		for start < len(items) && key(items[start]) <= after {
			start++
		}
	}
	page := ListPage[T]{Items: []T{}}
	end := start + limit
	if end > len(items) {
		end = len(items)
	}
	page.Items = append(page.Items, items[start:end]...)
	if end < len(items) && end > start {
		page.Next = key(items[end-1])
	}
	return page
}

// TraceResponse is the reply to GET /sessions/{id}/trace: the
// session's retained event log, oldest first.
type TraceResponse struct {
	Events []stream.Event `json:"events"`
}

// ErrorInfo is the machine-readable error detail inside the envelope.
type ErrorInfo struct {
	// Code is a stable machine-readable identifier: bad_request,
	// unknown_model, not_found, conflict, invalid_state, busy, timeout,
	// internal.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// ErrorResponse is the standardized JSON error envelope every handler
// returns: {"error":{"code":"...","message":"..."}}.
type ErrorResponse struct {
	Error ErrorInfo `json:"error"`
}

// Extension lets another subsystem mount routes under /v1 and
// contribute a named top-level block to GET /v1/stats — the hook the
// autonomous incident pipeline (internal/incident) plugs into without
// this package importing it. MountRoutes receives the same handle
// function the built-in routes use (patterns are "METHOD /path",
// rooted under /v1); StatsBlock returns the block's stable JSON key
// and its value (an empty name contributes nothing).
type Extension interface {
	MountRoutes(handle func(pattern string, h http.HandlerFunc))
	StatsBlock() (name string, v any)
}

// Handler exposes the manager as an HTTP JSON API — the agent-serving
// side of websimd — plus any mounted extensions (the incident
// pipeline). The stable, versioned contract lives under /v1; the
// deprecated unversioned aliases have been removed and now return 404
// with the standard error envelope. See API.md for the full
// request/response reference.
//
//	POST   /v1/sessions                  create (optionally train) a session
//	GET    /v1/sessions                  list sessions (paginated envelope)
//	GET    /v1/sessions/{id}             session status
//	DELETE /v1/sessions/{id}             close and discard a session
//	POST   /v1/sessions/{id}/train       run role-goal training
//	POST   /v1/sessions/{id}/ask         answer from current knowledge
//	POST   /v1/sessions/{id}/learn       full self-learning investigation
//	POST   /v1/sessions/{id}/plan        propose a response plan
//	POST   /v1/sessions/{id}/report      investigate + markdown report
//	POST   /v1/sessions/{id}/snapshot    persist memory+events+config to disk
//	POST   /v1/sessions/{id}/drain       snapshot + close, restorable (migration handoff)
//	GET    /v1/sessions/{id}/trace       the retained event log (audit trail)
//	GET    /v1/sessions/{id}/events      live investigation steps (SSE)
//	GET    /v1/stats                     namespaced runtime counters
//	GET    /v1/metrics                   Prometheus text exposition
//
// Every request runs under the manager's per-request timeout; a request
// queued behind a busy session gives up when the timeout fires (504).
// The events stream is the exception: it follows the client connection,
// not the request timeout. Errors are returned as the ErrorResponse
// envelope.
func Handler(m *Manager, exts ...Extension) http.Handler {
	mux := http.NewServeMux()

	// Per-handler metrics registry: every route registered through
	// handle gets a latency histogram labeled with its pattern, and GET
	// /v1/metrics serves the whole registry (plus the flattened stats
	// blocks) in Prometheus text format.
	reg := metrics.NewRegistry()

	// handle registers h under the versioned /v1 path, wrapped in the
	// per-route latency observer. The pre-/v1 unversioned aliases are
	// gone; the catch-all below turns them into enveloped 404s.
	handle := func(pattern string, h http.HandlerFunc) {
		method, path, _ := strings.Cut(pattern, " ")
		hist := reg.Histogram("repro_http_request_seconds",
			"HTTP request latency by route.", nil,
			metrics.Label{Key: "route", Value: method + " /v1" + path})
		mux.HandleFunc(method+" /v1"+path, func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h(w, r)
			hist.ObserveSince(t0)
		})
	}

	// Anything outside /v1 — including the removed unversioned aliases —
	// gets the standard envelope instead of the stdlib plaintext 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErrorCode(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no such endpoint %s %s (the API is versioned under /v1)", r.Method, r.URL.Path))
	})

	handle("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := m.requestCtx(r)
		defer cancel()
		var req CreateRequest
		if err := DecodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if req.Threshold < 0 || req.Threshold > maxThreshold {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("threshold %d outside 0-%d", req.Threshold, maxThreshold))
			return
		}
		if req.MaxRounds < 0 || req.MaxRounds > maxRoundsLimit {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("max_rounds %d outside 0-%d", req.MaxRounds, maxRoundsLimit))
			return
		}
		cfg := m.cfg.Defaults
		if req.Seed != nil {
			cfg.Seed = *req.Seed
		}
		if req.Social != nil {
			cfg.WebOptions.EnableSocial = *req.Social
		}
		if req.Threshold > 0 {
			cfg.AgentConfig.ConfidenceThreshold = req.Threshold
		}
		if req.MaxRounds > 0 {
			cfg.AgentConfig.MaxRounds = req.MaxRounds
		}
		if req.Incident != "" {
			cfg.Role = agent.IncidentAnalystRole(req.Incident)
		}
		if req.Model != "" {
			cfg.Model = req.Model
		}
		s, err := m.Create(req.ID, cfg)
		if err != nil {
			writeError(w, err)
			return
		}
		resp := CreateResponse{}
		if req.Train {
			release, err := m.Admit(ctx)
			if err != nil {
				writeError(w, err)
				return
			}
			rep, err := s.Train(ctx)
			release()
			if err != nil {
				writeError(w, err)
				return
			}
			resp.Train = &rep
		}
		resp.Status = s.Status()
		writeJSON(w, http.StatusCreated, resp)
	})

	handle("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		after, limit, err := PageArgs(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		// List() is sorted ascending by ID, so the cursor is the last ID
		// of the previous page.
		page := Paginate(m.List(), func(s Status) string { return s.ID }, after, limit)
		writeJSON(w, http.StatusOK, page)
	})

	handle("GET /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		s, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.Status())
	})

	handle("DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := m.requestCtx(r)
		defer cancel()
		if err := m.Close(ctx, r.PathValue("id"), true); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"closed": r.PathValue("id")})
	})

	handle("POST /sessions/{id}/train", func(w http.ResponseWriter, r *http.Request) {
		withSession(m, w, r, func(ctx context.Context, s *Session) (any, error) {
			return s.Train(ctx)
		})
	})

	handle("POST /sessions/{id}/ask", func(w http.ResponseWriter, r *http.Request) {
		withQuestion(m, w, r, func(ctx context.Context, s *Session, q string) (any, error) {
			return s.Ask(ctx, q)
		})
	})

	handle("POST /sessions/{id}/learn", func(w http.ResponseWriter, r *http.Request) {
		withQuestion(m, w, r, func(ctx context.Context, s *Session, q string) (any, error) {
			return s.Investigate(ctx, q)
		})
	})

	handle("POST /sessions/{id}/plan", func(w http.ResponseWriter, r *http.Request) {
		var req PlanRequest
		if err := DecodeJSON(r, &req); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		withSession(m, w, r, func(ctx context.Context, s *Session) (any, error) {
			items, err := s.Plan(ctx, req.Scenario)
			if err != nil {
				return nil, err
			}
			return PlanResponse{Items: items}, nil
		})
	})

	handle("POST /sessions/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		withQuestion(m, w, r, func(ctx context.Context, s *Session, q string) (any, error) {
			rep, inv, err := s.Report(ctx, q)
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			if err := rep.WriteMarkdown(&b); err != nil {
				return nil, err
			}
			return ReportResponse{Markdown: b.String(), Investigation: inv}, nil
		})
	})

	handle("POST /sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := m.requestCtx(r)
		defer cancel()
		path, err := m.Snapshot(ctx, r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, SnapshotResponse{Path: path})
	})

	// The migration handoff: persist final state and close, leaving the
	// snapshot restorable by any node sharing the snapshot directory.
	// The gateway drains a session here when its ring slot moves; the
	// new owner restores it lazily on the next request. 409 (conflict)
	// when the node has no snapshot directory to hand off through.
	handle("POST /sessions/{id}/drain", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := m.requestCtx(r)
		defer cancel()
		if err := m.Drain(ctx, r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"drained": r.PathValue("id")})
	})

	handle("GET /sessions/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		s, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		evs, _, _, err := s.Events(0)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, TraceResponse{Events: evs})
	})

	// The live step stream (SSE). Served outside the request timeout: an
	// event stream legitimately outlives any single operation.
	handle("GET /sessions/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(m, w, r)
	})

	// The capacity-planning endpoint. The body is namespaced into
	// stable top-level blocks (see StatsBlocks and API.md): sessions,
	// backend, caches, memory_segments, retrieval, plus one block per
	// mounted extension (the incident pipeline adds "incidents").
	handle("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, StatsBlocks(m, exts...))
	})

	// The Prometheus scrape endpoint: per-route latency histograms from
	// this handler's registry, derived cache hit-ratio gauges, then
	// every /v1/stats counter flattened into repro_stats_* gauges
	// (backend breaker opens, cache hits, incident queue depth, ...).
	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		reg.WriteProm(w)
		blocks := StatsBlocks(m, exts...)
		caches := blocks["caches"].(CachesStats)
		be := blocks["backend"].(backend.Stats)
		fmt.Fprintf(w, "# HELP repro_cache_hit_ratio Hit ratio of the ask-hot-path caches.\n# TYPE repro_cache_hit_ratio gauge\n")
		fmt.Fprintf(w, "repro_cache_hit_ratio{cache=\"evidence\"} %s\n", ratio(caches.Evidence.Hits, caches.Evidence.Misses))
		fmt.Fprintf(w, "repro_cache_hit_ratio{cache=\"knowledge\"} %s\n", ratio(caches.Knowledge.Hits, caches.Knowledge.Misses))
		fmt.Fprintf(w, "repro_cache_hit_ratio{cache=\"llm_response\"} %s\n", ratio(be.CacheHits, be.Requests))
		metrics.WriteStats(w, "repro_stats", blocks)
	})

	for _, ext := range exts {
		ext.MountRoutes(handle)
	}

	return mux
}

// CachesStats is the `caches` block of GET /v1/stats: the process-wide
// ask-hot-path caches.
type CachesStats struct {
	Evidence  llm.CacheStats    `json:"evidence"`
	Knowledge memory.CacheStats `json:"knowledge"`
}

// StatsBlocks assembles the namespaced GET /v1/stats body: one stable
// top-level block per subsystem. JSON object keys encode in sorted
// order, so the wire shape is deterministic. The schema (documented in
// API.md) is:
//
//	sessions         ManagerStats — manager lifecycle counters
//	backend          backend.Stats — process-wide LLM backend counters
//	caches           CachesStats — evidence + knowledge cache hit/miss
//	memory_segments  evalcache.SegmentCacheStats — interned segment table
//	retrieval        retrieval.Stats — parallel retrieval pipeline
//	<extension>      one block per mounted Extension (e.g. incidents)
func StatsBlocks(m *Manager, exts ...Extension) map[string]any {
	body := map[string]any{
		"sessions":        m.Stats(),
		"backend":         backend.Snapshot(),
		"caches":          CachesStats{Evidence: llm.EvidenceCacheStats(), Knowledge: memory.KnowledgeCacheStats()},
		"memory_segments": evalcache.SegmentStats(),
		"retrieval":       retrieval.Snapshot(),
	}
	for _, ext := range exts {
		if name, v := ext.StatsBlock(); name != "" {
			body[name] = v
		}
	}
	return body
}

// requestCtx derives the per-request context with the manager's timeout.
func (m *Manager) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), m.cfg.RequestTimeout)
}

// ratio renders hits/(hits+misses) for the hit-ratio gauges (0 when no
// traffic has been counted yet).
func ratio(hits, misses int64) string {
	if hits+misses == 0 {
		return "0"
	}
	return strconv.FormatFloat(float64(hits)/float64(hits+misses), 'g', -1, 64)
}

// withSession resolves the {id} session and runs op under the request
// timeout and the per-node admission gate, writing the JSON result or
// the mapped error.
func withSession(m *Manager, w http.ResponseWriter, r *http.Request, op func(context.Context, *Session) (any, error)) {
	ctx, cancel := m.requestCtx(r)
	defer cancel()
	id := r.PathValue("id")
	s, err := m.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	release, err := m.Admit(ctx)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	out, err := op(ctx, s)
	if errors.Is(err, ErrClosed) {
		// Another request's restore can evict the session between Get
		// and the op lock; the op failed before running, so look the
		// session up again (restoring it, or 404 if it was deleted) and
		// retry once.
		if s, err = m.Get(id); err == nil {
			out, err = op(ctx, s)
		}
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// withQuestion is withSession plus a required question body field.
func withQuestion(m *Manager, w http.ResponseWriter, r *http.Request, op func(context.Context, *Session, string) (any, error)) {
	var req QuestionRequest
	if err := DecodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if strings.TrimSpace(req.Question) == "" {
		httpError(w, http.StatusBadRequest, "missing question")
		return
	}
	withSession(m, w, r, func(ctx context.Context, s *Session) (any, error) {
		return op(ctx, s, req.Question)
	})
}

// writeError maps runtime errors to HTTP statuses and stable envelope
// codes.
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, backend.ErrUnknown):
		writeErrorCode(w, http.StatusBadRequest, "unknown_model", err.Error())
	case errors.Is(err, ErrInvalidID):
		writeErrorCode(w, http.StatusBadRequest, "bad_request", err.Error())
	case errors.Is(err, ErrNotFound):
		writeErrorCode(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, ErrExists), errors.Is(err, ErrClosed), errors.Is(err, ErrNoSnapshots):
		writeErrorCode(w, http.StatusConflict, "conflict", err.Error())
	case errors.Is(err, ErrBusy):
		writeErrorCode(w, http.StatusServiceUnavailable, "busy", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeErrorCode(w, http.StatusGatewayTimeout, "timeout", err.Error())
	default:
		writeErrorCode(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// respBufPool recycles response-encode buffers across requests; encoding
// to a buffer first also lets responses carry Content-Length instead of
// chunked framing. Oversized buffers are dropped rather than pinned.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledResp = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledResp {
			respBufPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeErrorCode writes the standardized error envelope.
func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorInfo{Code: code, Message: msg}})
}

// WriteJSON writes v with the shared pooled-buffer encoder — exported
// so extensions answer with the same framing as the built-in routes.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// DecodeJSON parses the request body into v. An empty body decodes to
// the zero value so simple POSTs need no payload. Exported so
// extensions read bodies as the built-in routes do.
func DecodeJSON(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("bad json body: %v", err)
	}
	return nil
}

// WriteErrorCode writes the standardized error envelope — exported so
// extensions return the same {"error":{"code","message"}} shape and
// stable codes as the built-in routes.
func WriteErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeErrorCode(w, status, code, msg)
}

// WriteError maps a runtime error to its HTTP status and envelope code
// using the same table as the built-in routes.
func WriteError(w http.ResponseWriter, err error) { writeError(w, err) }

// httpError is the bad-request shorthand for body-validation failures.
func httpError(w http.ResponseWriter, status int, msg string) {
	code := "bad_request"
	if status != http.StatusBadRequest {
		code = "internal"
	}
	writeErrorCode(w, status, code, msg)
}
