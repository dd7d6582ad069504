package main

import (
	"cmp"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/websim"
)

// Spans are recorded from the benchmark's own code, around its calls
// into each layer: the client request, the gateway's ServeHTTP, the
// backend handler, and every model and web call. Spans of one request
// share its request ID; the HTTP hops carry the request ID and the
// parent span ID in two headers that the gateway forwards unchanged.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// span is one timed interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the length of a traced run.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ref names the span a call happens under.
type ref struct{ req, parent int64 }

type refKey struct{}

func withRef(ctx context.Context, r ref) context.Context {
	return context.WithValue(ctx, refKey{}, r)
}

func refFrom(ctx context.Context) (ref, bool) {
	r, ok := ctx.Value(refKey{}).(ref)
	return r, ok
}

// begin opens a span under parent and returns it with its ID assigned.
func (t *tracer) begin(name string, parent ref) span {
	return span{ID: t.ids.Add(1), Parent: parent.parent, Req: parent.req, Name: name, Start: int64(time.Since(t.epoch))}
}

// end closes s and keeps it.
func (t *tracer) end(s span) {
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root opens a new request's top span.
func (t *tracer) root(name string) span {
	return t.begin(name, ref{req: t.reqs.Add(1)})
}

// reset drops every span kept so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns the spans kept so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeSpans saves spans as JSON.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// handler wraps one HTTP layer in a span. Requests without the trace
// headers (set-up traffic) pass through unrecorded. The span becomes
// the parent of everything the layer does: its ID replaces the parent
// header for the next hop and rides the request context to model calls.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if req == 0 {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		s := t.begin(name, ref{req: req, parent: parent})
		r.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
		next.ServeHTTP(w, r.WithContext(withRef(r.Context(), ref{req: req, parent: s.ID})))
		t.end(s)
	})
}

// call times fn as a span named name under the span in ctx; calls
// outside any traced request are recorded as roots of their own.
func (t *tracer) call(ctx context.Context, name string, fn func()) {
	r, ok := refFrom(ctx)
	if !ok {
		r = ref{req: t.reqs.Add(1)}
	}
	s := t.begin(name, r)
	fn()
	t.end(s)
}

// tracedModel records a "model" span around every completion. It
// implements llm.ParsedCompleter, so a model with the structured fast
// path keeps it.
type tracedModel struct {
	inner llm.Model
	t     *tracer
}

func (m *tracedModel) Complete(ctx context.Context, encoded string) (out string, err error) {
	m.t.call(ctx, "model", func() { out, err = m.inner.Complete(ctx, encoded) })
	return out, err
}

func (m *tracedModel) CompleteParsed(ctx context.Context, p prompt.Prompt) (out string, err error) {
	m.t.call(ctx, "model", func() { out, err = llm.Complete(ctx, m.inner, p) })
	return out, err
}

// tracedWeb records a "web" span around every search and fetch.
type tracedWeb struct {
	inner websim.Web
	t     *tracer
}

func (w *tracedWeb) Search(ctx context.Context, q string, k int) (out []websim.Result, err error) {
	w.t.call(ctx, "web", func() { out, err = w.inner.Search(ctx, q, k) })
	return out, err
}

func (w *tracedWeb) Fetch(ctx context.Context, url string) (out websim.Page, err error) {
	w.t.call(ctx, "web", func() { out, err = w.inner.Fetch(ctx, url) })
	return out, err
}

// selfTime is a span's duration minus the part of its interval its
// children cover. Children may overlap — retrieval fans out — so their
// intervals are merged, not summed.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// spanTree indexes spans by ID and by parent.
type spanTree struct {
	byID     map[int64]span
	children map[int64][]span
}

func newSpanTree(spans []span) spanTree {
	t := spanTree{byID: make(map[int64]span, len(spans)), children: map[int64][]span{}}
	for _, s := range spans {
		t.byID[s.ID] = s
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

func (t spanTree) self(s span) time.Duration { return selfTime(s, t.children[s.ID]) }

// child returns the first child of s with the given name.
func (t spanTree) child(s span, name string) (span, bool) {
	for _, c := range t.children[s.ID] {
		if c.Name == name {
			return c, true
		}
	}
	return span{}, false
}
