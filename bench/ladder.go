package main

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/agent"
	"repro/internal/evalcache"
	"repro/internal/gateway"
	"repro/internal/incident"
	"repro/internal/llm"
	"repro/internal/llm/backend"
	"repro/internal/prompt"
	"repro/internal/session"
	"repro/internal/stream"
	"repro/internal/websim"
)

// topRung names the in-process call a workload's operation reaches:
// the rung the traced run's end-to-end latency is compared against.
type topRung int

const (
	topAsk         topRung = iota // session.Session.Ask
	topInvestigate                // agent.Agent.Investigate on a fresh agent
	topFile                       // incident.Store.File with a store file
)

// ladderInput is what the ladder takes from the workload it runs
// under: the questions the replay asked, the model behind it, and the
// incident batches it filed.
type ladderInput struct {
	questions []string
	top       topRung
	remote    bool
	batches   [][]incident.Filing
}

// ladderResult holds each rung's per-call durations (per batch of
// batchCalls for getHot and admit).
type ladderResult struct {
	knowledgeText, knowledgeTextUncached []time.Duration
	complete, agentSelf                  []time.Duration
	sessionAsk, sessionAskPlain          []time.Duration
	sessionSelf                          []time.Duration
	getHot, admit, getRestore, snapshot  []time.Duration
	file, fileNoPath                     []time.Duration
	drain, drainPlain                    []time.Duration
	investigate, investigatePlain        []time.Duration
	investigateSelf, rounds, firstRound  []time.Duration
	backendComplete                      []time.Duration
	hopSelf, handler                     []time.Duration
}

// top returns the top rung's durations, traced and without wrappers.
func (r *ladderResult) top(t topRung) (traced, plain []time.Duration) {
	switch t {
	case topInvestigate:
		return r.investigate, r.investigatePlain
	case topFile:
		return r.file, r.file
	}
	return r.sessionAsk, r.sessionAskPlain
}

// overhead returns the rung whose inner calls carry span wrappers,
// traced and plain: the top rung, except for incident-drain, whose top
// rung (a filing) makes no model call; there it is the batch drain.
func (r *ladderResult) overhead(t topRung) (traced, plain []time.Duration) {
	if t == topFile {
		return r.drain, r.drainPlain
	}
	return r.top(t)
}

// timed runs fn until the rung's share of the budget is spent, and at
// least min times. fn returns the duration it measured, so per-call
// preparation stays out of the sample.
func timed(budget time.Duration, minN int, fn func(i int) (time.Duration, error)) ([]time.Duration, error) {
	var out []time.Duration
	stop := time.Now().Add(budget)
	for i := 0; i < minN || time.Now().Before(stop); i++ {
		d, err := fn(i)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// pair runs one untraced and one traced call, alternating which goes
// first, so drift and warm-up do not favour either side of the
// tracing-overhead comparison.
func pair(i int, plain, traced func() error) error {
	first, second := plain, traced
	if i%2 == 1 {
		first, second = traced, plain
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// batchCalls is how many calls batched times per sample.
const batchCalls = 256

// batched times calls too short for one clock reading: each sample is
// the time of batchCalls calls.
func batched(budget time.Duration, fn func()) []time.Duration {
	out, _ := timed(budget, 8, func(int) (time.Duration, error) {
		t0 := time.Now()
		for range batchCalls {
			fn()
		}
		return time.Since(t0), nil
	})
	return out
}

// ladder times the public Go functions of each layer in process, with
// the workload's inputs. Every rung runs on every workload, so each
// per-layer time is measured everywhere; what the workload changes is
// the questions, the model and the batches the rungs are fed.
func (e *runEnv) ladder(in ladderInput) (*ladderResult, error) {
	ctx := context.Background()
	total := time.Duration(e.seconds*float64(time.Second)) * 2 / 5
	per := total / 14
	lt := newTracer()
	r := &ladderResult{}
	dir, err := os.MkdirTemp(e.work, "ladder-*")
	if err != nil {
		return nil, err
	}
	qs := in.questions
	if len(qs) == 0 {
		for _, b := range in.batches {
			for _, f := range b {
				qs = append(qs, f.Question)
			}
		}
	}
	filings := slices.Concat(in.batches...)
	if len(filings) == 0 {
		filings = incident.SimBatch(1)
	}

	registerTraced("bench-ladder-sim", "", lt)
	traced := session.Config{Seed: corpusSeed, Model: "bench-ladder-sim"}
	plain := session.Config{Seed: corpusSeed}

	stub := &stack{}
	defer stub.stop()
	stubURL, err := stub.serve(stubHandler(2 * time.Millisecond))
	if err != nil {
		return nil, err
	}

	// Memory, model and agent: Agent.Ask on a trained agent, with the
	// model call as its one child span.
	a, _, err := session.NewAgent(traced)
	if err != nil {
		return nil, err
	}
	if _, err := a.Train(ctx); err != nil {
		return nil, err
	}
	r.knowledgeText, _ = timed(per, 64, func(i int) (time.Duration, error) {
		t0 := time.Now()
		a.Memory.KnowledgeText(qs[i%len(qs)], 16)
		return time.Since(t0), nil
	})
	uncached := a.Memory.Clone()
	uncached.DisableCache()
	r.knowledgeTextUncached, _ = timed(per, 64, func(i int) (time.Duration, error) {
		t0 := time.Now()
		uncached.KnowledgeText(qs[i%len(qs)], 16)
		return time.Since(t0), nil
	})
	lt.reset()
	if _, err := timed(per, 64, func(i int) (time.Duration, error) {
		s := lt.root("agent.ask")
		_, err := a.Ask(withRef(ctx, ref{s.Req, s.ID}), qs[i%len(qs)])
		lt.end(s)
		return 0, err
	}); err != nil {
		return nil, err
	}
	r.agentSelf, _ = selfAndChildren(lt.snapshot(), "agent.ask")

	// Session and manager: Session.Ask through the op lock, with and
	// without the model wrapper — its model span is the ladder's model
	// call — plus the manager's lookup, admission, restore and snapshot
	// paths.
	mgr := session.NewManager(session.ManagerConfig{Defaults: traced, MaxInFlight: 2})
	defer mgr.Shutdown()
	st, err := mgr.Create("ladder", traced)
	if err != nil {
		return nil, err
	}
	sp, err := mgr.Create("ladder-plain", plain)
	if err != nil {
		return nil, err
	}
	for _, s := range []*session.Session{st, sp} {
		if _, err := s.Train(ctx); err != nil {
			return nil, err
		}
	}
	lt.reset()
	if _, err := timed(per, 64, func(i int) (time.Duration, error) {
		q := qs[i%len(qs)]
		return 0, pair(i, func() error {
			t0 := time.Now()
			_, err := sp.Ask(ctx, q)
			r.sessionAskPlain = append(r.sessionAskPlain, time.Since(t0))
			return err
		}, func() error {
			s := lt.root("session.ask")
			_, err := st.Ask(withRef(ctx, ref{s.Req, s.ID}), q)
			lt.end(s)
			return err
		})
	}); err != nil {
		return nil, err
	}
	r.sessionSelf, r.complete = selfAndChildren(lt.snapshot(), "session.ask")
	r.sessionAsk = spanDurations(lt.snapshot(), "session.ask")
	r.getHot = batched(per/2, func() { _, _ = mgr.Get("ladder") })
	r.admit = batched(per/2, func() {
		if release, err := mgr.Admit(ctx); err == nil {
			release()
		}
	})
	if err := e.restoreRungs(r, per, qs, filepath.Join(dir, "snapshots")); err != nil {
		return nil, err
	}

	// Incident store and processor. Store.File is timed over one pass of
	// the workload's filings into one store, with and without a store
	// file: the store's cost grows with its size, so the pass, not a time
	// budget, fixes the sample.
	for _, path := range []string{filepath.Join(dir, "incidents.json"), ""} {
		store := incident.NewStore(incident.StoreConfig{Path: path})
		ds := make([]time.Duration, 0, len(filings))
		for _, f := range filings {
			t0 := time.Now()
			if _, err := store.File(f); err != nil {
				return nil, err
			}
			ds = append(ds, time.Since(t0))
		}
		if path != "" {
			r.file = ds
		} else {
			r.fileNoPath = ds
		}
	}
	batch := filings[:min(len(filings), len(incident.SimBatch(1)))]
	if _, err := timed(per, 2, func(i int) (time.Duration, error) {
		return 0, pair(i, func() error {
			d, err := drainOnce(ctx, batch, plain)
			r.drainPlain = append(r.drainPlain, d)
			return err
		}, func() error {
			d, err := drainOnce(ctx, batch, traced)
			r.drain = append(r.drain, d)
			return err
		})
	}); err != nil {
		return nil, err
	}

	// Agent investigation, retrieval and the remote backend.
	if err := investigateRungs(ctx, r, lt, per*2, qs, in.remote, stubURL); err != nil {
		return nil, err
	}
	remote, err := backend.NewWith("remote", backend.Options{Endpoint: stubURL})
	if err != nil {
		return nil, err
	}
	know := a.Memory.KnowledgeText(qs[0], 16)
	r.backendComplete, err = timed(per, 16, func(i int) (time.Duration, error) {
		p := prompt.Prompt{Task: prompt.TaskAnswer, Knowledge: know, Question: fmt.Sprintf("%s (ladder %d)", qs[i%len(qs)], i)}
		t0 := time.Now()
		_, err := llm.Complete(ctx, remote, p)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}

	// Gateway hop and HTTP handling: a session status read through an
	// in-process gateway.
	return r, hopRung(ctx, r, mgr, lt, per)
}

// restoreRungs times Manager.Get of a session evicted to disk, and
// Manager.Snapshot of a live one, on a one-session manager whose
// sessions carry a learned delta over their trained segment.
func (e *runEnv) restoreRungs(r *ladderResult, per time.Duration, qs []string, dir string) error {
	ctx := context.Background()
	mgr := session.NewManager(session.ManagerConfig{Capacity: 1, SnapshotDir: dir, Defaults: session.Config{Seed: corpusSeed}})
	defer mgr.Shutdown()
	ids := []string{"restore-a", "restore-b"}
	for _, id := range ids {
		s, err := mgr.Create(id, mgr.Config().Defaults)
		if err != nil {
			return err
		}
		if _, err := s.Train(ctx); err != nil {
			return err
		}
		if _, err := s.Investigate(ctx, qs[0]); err != nil {
			return err
		}
	}
	var err error
	r.getRestore, err = timed(per/2, 16, func(i int) (time.Duration, error) {
		mgr.Flush() // the evicted session is on disk, not pending in memory
		t0 := time.Now()
		_, err := mgr.Get(ids[i%2])
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	live := ids[(len(r.getRestore)-1)%2]
	r.snapshot, err = timed(per/2, 16, func(int) (time.Duration, error) {
		t0 := time.Now()
		_, err := mgr.Snapshot(ctx, live)
		return time.Since(t0), err
	})
	return err
}

// drainOnce files a batch into a fresh store and drains it in process.
func drainOnce(ctx context.Context, batch []incident.Filing, cfg session.Config) (time.Duration, error) {
	store := incident.NewStore(incident.StoreConfig{})
	if _, err := incident.FileAll(store, batch); err != nil {
		return 0, err
	}
	mgr := session.NewManager(session.ManagerConfig{Defaults: cfg})
	defer mgr.Shutdown()
	p := incident.NewProcessor(store, mgr, incident.ProcessorConfig{Workers: 2, MaxTurns: 4, Session: cfg})
	t0 := time.Now()
	err := p.Drain(ctx)
	return time.Since(t0), err
}

// investigateRungs times Agent.Investigate on a fresh, untrained agent
// — the investigate workload's fresh session — built with agent.New
// around span-wrapped model and web, and the same without wrappers.
// The spans give the agent's self time, each retrieval round (the web
// calls between two model calls) and the first round event.
func investigateRungs(ctx context.Context, r *ladderResult, lt *tracer, budget time.Duration, qs []string, remote bool, stubURL string) error {
	newModel := func() (llm.Model, error) {
		if remote {
			return backend.NewWith("remote", backend.Options{Endpoint: stubURL})
		}
		return llm.NewSim(), nil
	}
	once := func(q string, wrap bool) error {
		m, err := newModel()
		if err != nil {
			return err
		}
		var web websim.Web = evalcache.Engine(corpusSeed, websim.Options{})
		if wrap {
			m, web = &tracedModel{inner: m, t: lt}, &tracedWeb{inner: web, t: lt}
		}
		a := agent.New(agent.BobRole(), m, web, nil, agent.Config{})
		var first time.Duration
		t0 := time.Now()
		a.Observer = func(ev stream.Event) {
			if ev.Type == stream.EventRound && first == 0 {
				first = time.Since(t0)
			}
		}
		if !wrap {
			_, err := a.Investigate(ctx, q)
			r.investigatePlain = append(r.investigatePlain, time.Since(t0))
			return err
		}
		s := lt.root("agent.investigate")
		_, err = a.Investigate(withRef(ctx, ref{s.Req, s.ID}), q)
		lt.end(s)
		r.firstRound = append(r.firstRound, first)
		return err
	}
	lt.reset()
	if _, err := timed(budget, 4, func(i int) (time.Duration, error) {
		q := qs[i%len(qs)]
		return 0, pair(i, func() error { return once(q, false) }, func() error { return once(q, true) })
	}); err != nil {
		return err
	}
	spans := lt.snapshot()
	tree := newSpanTree(spans)
	for _, s := range spans {
		if s.Name != "agent.investigate" {
			continue
		}
		r.investigate = append(r.investigate, s.dur())
		r.investigateSelf = append(r.investigateSelf, tree.self(s))
		r.rounds = append(r.rounds, retrievalRounds(tree.children[s.ID])...)
	}
	return nil
}

// retrievalRounds returns the wall time of each retrieval round among
// an investigation's child spans: a maximal run of web calls with no
// model call between them.
func retrievalRounds(children []span) []time.Duration {
	cs := slices.Clone(children)
	slices.SortFunc(cs, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var out []time.Duration
	var lo, hi int64
	open := false
	for _, c := range cs {
		switch {
		case c.Name == "web" && !open:
			lo, hi, open = c.Start, c.End, true
		case c.Name == "web":
			hi = max(hi, c.End)
		case open:
			out = append(out, time.Duration(hi-lo))
			open = false
		}
	}
	if open {
		out = append(out, time.Duration(hi-lo))
	}
	return out
}

// hopRung reads a session's status through an in-process gateway in
// front of an in-process backend handler. The gateway span's self time
// is the hop without the backend's handling; the handler span is the
// HTTP layer's own cost, for a request that does no agent work.
func hopRung(ctx context.Context, r *ladderResult, mgr *session.Manager, lt *tracer, budget time.Duration) error {
	st := &stack{}
	defer st.stop()
	backendURL, err := st.serve(lt.handler("handler", session.Handler(mgr)))
	if err != nil {
		return err
	}
	gw := gateway.New(gateway.Config{}, []string{backendURL[len("http://"):]})
	defer gw.Close()
	gwURL, err := st.serve(lt.handler("gateway", gw))
	if err != nil {
		return err
	}
	c := newClient(gwURL, 1, lt)
	defer c.close()
	lt.reset()
	if _, err := timed(budget, 64, func(int) (time.Duration, error) {
		return 0, c.get(ctx, "status", "/v1/sessions/ladder", nil)
	}); err != nil {
		return err
	}
	spans := lt.snapshot()
	tree := newSpanTree(spans)
	for _, s := range spans {
		switch s.Name {
		case "gateway":
			r.hopSelf = append(r.hopSelf, tree.self(s))
		case "handler":
			r.handler = append(r.handler, s.dur())
		}
	}
	if len(r.hopSelf) == 0 || len(r.handler) == 0 {
		return fmt.Errorf("gateway rung recorded no gateway or handler spans")
	}
	return nil
}

// selfAndChildren returns, for every span named name, its self time,
// and the durations of all its children.
func selfAndChildren(spans []span, name string) (self, children []time.Duration) {
	tree := newSpanTree(spans)
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		self = append(self, tree.self(s))
		for _, c := range tree.children[s.ID] {
			children = append(children, c.dur())
		}
	}
	return self, children
}

func spanDurations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}
