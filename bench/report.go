package main

import (
	"fmt"
	"math"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Errors = append(r.Errors, fmt.Sprintf("metric %s is not a number (%v)", name, v))
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p50us is the median of ds in microseconds, with every digit kept
// (NaN, which set reports, for no samples).
func p50us(ds []time.Duration) float64 { return quantile(micros(ds), 0.5) }

// ratio is part/whole, 0 when nothing was counted.
func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// report turns a workload's measured phases into its result: the
// end-to-end metrics in the untraced run, the per-layer metrics in the
// traced one.
func (e *runEnv) report(name string, m *measured, in ladderInput) (*result, error) {
	res := &result{
		Workload:  name,
		Seed:      e.seed,
		Trace:     e.tr != nil,
		Seconds:   e.seconds,
		Attempted: m.ops.attempted + m.extra.attempted,
		Failed:    m.ops.failed + m.extra.failed,
		Errors:    append(m.ops.errs, m.extra.errs...),
		Metrics:   map[string]metric{},
	}
	ops := float64(len(m.ops.lat))
	if ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed: %v", name, res.Errors)
	}
	res.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.set("client.conns", float64(m.dials), "count")
	res.set("client.retries", float64(m.retries.Load()), "count")
	res.set("samples", ops, "count")
	if e.tr == nil {
		// Every metric is computed per window (one per launched
		// topology) and the median over the windows reported, so a
		// stretch of interference from outside the run moves one window,
		// not the result.
		var rate, mid, tail, cpu []float64
		for _, w := range m.windows {
			if len(w.lat) == 0 {
				continue
			}
			l := millis(w.lat)
			rate = append(rate, float64(len(l))/w.wall.Seconds())
			mid = append(mid, quantile(l, 0.50))
			tail = append(tail, quantile(l, 0.99))
			cpu = append(cpu, ms(w.cpu)/float64(len(l)))
		}
		res.set("setup_s", median(m.setup), "s")
		res.set("ops_per_s", median(rate), "1/s")
		res.set("op_p50_ms", median(mid), "ms")
		res.set("op_p99_ms", median(tail), "ms")
		res.set("cpu_ms_per_op", median(cpu), "ms")
		res.set("client.cpu_ms_per_op", ms(m.selfCPU)/ops, "ms")
		res.set("peak_rss_mb", median(m.rss), "MiB")
		if len(m.firstRound) > 0 {
			res.set("first_round_p50_ms", p50us(m.firstRound)/1000, "ms")
		}
	} else if err := e.layerMetrics(res, m, in); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	return res, nil
}

// mainRoute is the client span of each workload's operation.
var mainRoute = map[topRung]string{
	topAsk:         "client ask",
	topInvestigate: "client learn",
	topFile:        "client file",
}

// layerMetrics computes the traced run's per-layer metrics: self times
// from the replay's spans, counter deltas from its /v1/stats, and the
// ladder of in-process rungs.
func (e *runEnv) layerMetrics(res *result, m *measured, in ladderInput) error {
	ops := float64(len(m.ops.lat))
	lad, err := e.ladder(in)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if e.spansPath != "" {
		if err := writeSpans(e.spansPath, m.spans); err != nil {
			return err
		}
	}

	// Replay spans: the client's request, its first server hop (the
	// gateway or the handler) and the backend handler.
	tree := newSpanTree(m.spans)
	var clientD, transport, handler []time.Duration
	var model time.Duration
	for _, s := range m.spans {
		switch s.Name {
		case mainRoute[in.top]:
			clientD = append(clientD, s.dur())
			srv, ok := tree.child(s, "gateway")
			if !ok {
				srv, ok = tree.child(s, "handler")
			}
			if !ok {
				continue
			}
			transport = append(transport, tree.self(s))
			if h, ok := tree.child(srv, "handler"); ok {
				srv = h
			}
			handler = append(handler, srv.dur())
		case "model":
			model += s.dur()
		}
	}
	top, _ := lad.top(in.top)
	oTraced, oPlain := lad.overhead(in.top)
	res.set("transport.self_p50_us", p50us(transport), "us")
	res.set("http.handler_p50_us", p50us(handler), "us")
	res.set("llm.model_ms_per_op", ms(model)/ops, "ms")
	res.set("stack.cpu_ms_per_op", ms(m.selfCPU)/ops, "ms")
	res.set("unattributed_ms", (p50us(clientD)-p50us(top))/1000, "ms")
	res.set("trace.overhead_pct", 100*(p50us(oTraced)/p50us(oPlain)-1), "%")

	// Ladder rungs. Session.Ask splits into the session's own work (op
	// lock, events), the agent's (knowledge retrieval, prompt, parsing)
	// and the model call; ladder_sum_pct says how far those three
	// medians account for the rung's own median.
	sessionSelf := p50us(lad.sessionSelf) - p50us(lad.agentSelf)
	res.set("trace.ladder_sum_pct", 100*(sessionSelf+p50us(lad.agentSelf)+p50us(lad.complete))/p50us(lad.sessionAsk), "%")
	res.set("gateway.hop_self_p50_us", p50us(lad.hopSelf), "us")
	res.set("http.self_p50_us", p50us(lad.handler), "us")
	res.set("manager.get_hot_p50_us", p50us(lad.getHot)/batchCalls, "us")
	res.set("manager.get_restore_p50_us", p50us(lad.getRestore), "us")
	res.set("manager.snapshot_p50_us", p50us(lad.snapshot), "us")
	res.set("manager.admit_p50_us", p50us(lad.admit)/batchCalls, "us")
	res.set("session.ask_self_p50_us", sessionSelf, "us")
	res.set("agent.ask_self_p50_us", p50us(lad.agentSelf), "us")
	res.set("agent.investigate_self_ms", p50us(lad.investigateSelf)/1000, "ms")
	res.set("memory.knowledge_text_p50_us", p50us(lad.knowledgeText), "us")
	res.set("memory.knowledge_text_uncached_p50_us", p50us(lad.knowledgeTextUncached), "us")
	res.set("llm.complete_p50_us", p50us(lad.complete), "us")
	res.set("backend.complete_p50_ms", p50us(lad.backendComplete)/1000, "ms")
	res.set("retrieval.round_p50_ms", p50us(lad.rounds)/1000, "ms")
	res.set("stream.first_round_ms", p50us(lad.firstRound)/1000, "ms")
	res.set("incident.file_p50_us", p50us(lad.file), "us")
	res.set("incident.persist_share", 1-ratio(p50us(lad.fileNoPath), p50us(lad.file)), "ratio")
	res.set("incident.drain_ms", p50us(lad.drain)/1000, "ms")

	// Counter deltas over the replay, per operation (or per batch).
	d := func(k string) float64 { return m.stats[k] }
	batches := float64(max(m.batches, 1))
	res.set("manager.disk_restores_per_op", d("sessions.disk_restores")/ops, "count")
	res.set("manager.evictions_per_op", d("sessions.evictions")/ops, "count")
	res.set("manager.sync_write_falls_per_op", d("sessions.sync_write_falls")/ops, "count")
	res.set("manager.write_errors", d("sessions.write_errors"), "count")
	res.set("memory.knowledge_cache_hit_ratio", ratio(d("caches.knowledge.hits"), d("caches.knowledge.hits")+d("caches.knowledge.misses")), "ratio")
	res.set("memory_segments.resident_bytes", m.gauges["memory_segments.resident_bytes"], "bytes")
	res.set("memory_segments.hit_ratio", ratio(d("memory_segments.hits"), d("memory_segments.hits")+d("memory_segments.misses")), "ratio")
	res.set("llm.evidence_cache_hit_ratio", ratio(d("caches.evidence.hits"), d("caches.evidence.hits")+d("caches.evidence.misses")), "ratio")
	res.set("backend.requests_per_op", d("backend.requests")/ops, "count")
	res.set("backend.cache_hit_ratio", ratio(d("backend.cache_hits"), d("backend.cache_hits")+d("backend.requests")), "ratio")
	res.set("backend.coalesced", d("backend.coalesced_completions"), "count")
	res.set("backend.retries", d("backend.retries"), "count")
	res.set("backend.failures", d("backend.failures"), "count")
	res.set("backend.fallbacks", d("backend.fallback_completions"), "count")
	res.set("retrieval.searches_per_op", d("retrieval.searches")/ops, "count")
	res.set("retrieval.fetches_per_op", d("retrieval.fetches")/ops, "count")
	res.set("retrieval.saved_fetch_ratio", ratio(d("retrieval.saved_fetches"), d("retrieval.saved_fetches")+d("retrieval.fetches")), "ratio")
	res.set("retrieval.errors", d("retrieval.search_errors")+d("retrieval.fetch_errors"), "count")
	res.set("incident.leaders_per_batch", d("incidents.leaders")/batches, "count")
	res.set("incident.followers_per_batch", d("incidents.followers")/batches, "count")
	res.set("incident.saved_rounds_per_batch", d("incidents.saved_rounds")/batches, "count")
	res.set("incident.escalated_per_batch", d("incidents.escalated")/batches, "count")
	res.set("gateway.proxied_per_op", d("gateway.proxied")/ops, "count")
	res.set("gateway.proxy_errors", d("gateway.proxy_errors"), "count")
	return nil
}
