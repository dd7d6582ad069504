package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incident"
	"repro/internal/quiz"
)

// workloads are the benchmark's traffic mixes. Why each exists, and
// which layers it loads and which it leaves idle, is recorded next to
// its name in BENCHMARK.json and bench/README.md.
var workloads = []struct {
	name string
	run  func(*runEnv) (*result, error)
}{
	{"ask-hot", runAskHot},
	{"ask-churn", runAskChurn},
	{"investigate", runInvestigate},
	{"incident-drain", runIncidentDrain},
}

// sizes fixes how much state each workload builds and how much fixed
// work warms it up. The smoke test runs the same code at tiny sizes.
type sizes struct {
	hotSessions     int // ask-hot: trained sessions behind the gateway
	hotWarmup       int // ask-hot: asks before measuring
	churnSessions   int // ask-churn: sessions, all trained and learned once
	churnCapacity   int // ask-churn: resident sessions (websimd -capacity)
	churnWarmup     int // ask-churn: asks before measuring
	incidentBatches int // incident-drain: batches per process lifetime
	instances       int // measured topologies per untraced run
	setups          int // set-up samples per untraced run
}

var fullSizes = sizes{
	hotSessions:     16,
	hotWarmup:       2000,
	churnSessions:   256,
	churnCapacity:   32,
	churnWarmup:     100,
	incidentBatches: 6,
	instances:       5,
	setups:          9,
}

var shortSizes = sizes{
	hotSessions:     2,
	hotWarmup:       16,
	churnSessions:   8,
	churnCapacity:   2,
	churnWarmup:     16,
	incidentBatches: 1,
	instances:       1,
	setups:          1,
}

// clients is the connection limit of every client, and the closed-loop
// concurrency of ask-churn: one per core of the 2-core machine the
// bounds were measured on.
const clients = 2

// churnThink is ask-churn's pause between a client's asks (see
// runAskChurn).
const churnThink = 4 * time.Millisecond

// runEnv is what one run of one workload needs.
type runEnv struct {
	websimd, llmstub string  // server binaries (untraced run)
	work             string  // scratch directory, removed after the run
	seed             uint64  // workload seed: shapes the traffic, never the world
	seconds          float64 // --seconds
	tr               *tracer // non-nil for the traced run
	spansPath        string  // where the traced run writes its replay spans ("" = nowhere)
	sizes            sizes
}

// measureFor is how long the workload's traffic runs in all. The traced
// run leaves two fifths of its time to the layer ladder.
func (e *runEnv) measureFor() time.Duration {
	d := time.Duration(e.seconds * float64(time.Second))
	if e.tr != nil {
		d = d * 3 / 5
	}
	return d
}

func (e *runEnv) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, stream))
}

// window is one measured stretch of traffic on one launched topology.
type window struct {
	lat  []time.Duration // latency of each completed operation
	wall time.Duration
	cpu  time.Duration // server CPU used
}

// measured accumulates what a workload's measured phases did.
type measured struct {
	ops     tally // the workload's operation, over every window
	extra   tally // other checked operations (set-up, warm-up, drain checks)
	windows []window
	setup   []float64     // set-up times, seconds
	rss     []float64     // servers' peak RSS after a fixed amount of work, MiB
	selfCPU time.Duration // the benchmark's own CPU in the windows
	dials   int64         // most connections one client opened
	retries atomic.Int64  // operations retried (see evictedMidRequest)
	batches int           // incident batches filed
	// Traced run only: /v1/stats counter deltas over the windows, the
	// last reading of each (for gauges), and the replay's spans.
	stats, gauges map[string]float64
	spans         []span
	// firstRound is, per measured investigation, the time from sending
	// POST /learn to the first SSE round event.
	firstRound []time.Duration
}

// phase runs fn as one measured window on a launched topology.
func (e *runEnv) phase(m *measured, top *topology, c *client, fn func()) {
	pids := top.serverPIDs()
	n0 := len(m.ops.lat)
	cpu0, self0 := cpuTime(pids), selfCPU()
	var st0 map[string]float64
	if top.stack != nil {
		st0 = top.stack.stats()
		e.tr.reset()
	}
	t0 := time.Now()
	fn()
	m.windows = append(m.windows, window{
		lat:  slices.Clone(m.ops.lat[n0:]),
		wall: time.Since(t0),
		cpu:  cpuTime(pids) - cpu0,
	})
	m.selfCPU += selfCPU() - self0
	m.dials = max(m.dials, c.dials.Load())
	if top.stack != nil {
		m.spans = append(m.spans, e.tr.snapshot()...)
		st1 := top.stack.stats()
		if m.stats == nil {
			m.stats = map[string]float64{}
		}
		for k, v := range st1 {
			m.stats[k] += v - st0[k]
		}
		m.gauges = st1
	}
}

// instances runs the workload on freshly launched topologies, as many
// as sizes.instances (one in the traced run). Each is prepared — timed
// from launch, the setup_s sample — then warmed up with a fixed amount
// of work, after which the servers' peak RSS is read (so it does not
// grow with how fast the run went), then measured for an equal share of
// the run. Spreading the measurement over several server processes
// keeps one unlucky process from deciding the result. The untraced run
// then launches and prepares more topologies, unmeasured, until it has
// sizes.setups set-up samples.
func (e *runEnv) instances(m *measured, ts topoSpec, prepare, warm func(*client) error, measure func(*client, func(int) bool)) error {
	n, launches := e.sizes.instances, max(e.sizes.instances, e.sizes.setups)
	if e.tr != nil {
		n, launches = 1, 1
	}
	for i := range launches {
		t0 := time.Now()
		top, err := e.launch(ts)
		if err != nil {
			return err
		}
		c := newClient(top.base, clients, e.tr)
		err = prepare(c)
		m.setup = append(m.setup, time.Since(t0).Seconds())
		if err == nil && i < n {
			if err = warm(c); err == nil {
				m.rss = append(m.rss, peakRSSMB(top.serverPIDs()))
				e.phase(m, top, c, func() { measure(c, during(e.measureFor()/time.Duration(n))) })
			}
		}
		c.close()
		top.stop()
		if err != nil {
			return err
		}
	}
	return nil
}

// each runs fn(i) for i in [0,n) on `clients` goroutines and returns
// the first error.
func each(n int, fn func(i int) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		first    error
		next     int
		failFast bool
	)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := failFast
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first, failFast = err, true
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// conclusionQuestions returns the eight quiz conclusion questions in
// the seed's order.
func conclusionQuestions(e *runEnv) []string {
	var qs []string
	for _, c := range quiz.Conclusions() {
		qs = append(qs, c.Question)
	}
	e.rng(0).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

type question struct {
	Question string `json:"question"`
}

// sameAs records got as the reference for key, or checks it against the
// reference an earlier server instance (or operation) set.
func sameAs(ref map[string][]byte, key string, got []byte) bool {
	if want, ok := ref[key]; ok {
		return bytes.Equal(got, want)
	}
	ref[key] = got
	return true
}

// runAskHot is the interactive operator on the deployed gateway path:
// 16 trained sessions behind websimd -gateway -spawn 1, asked the
// conclusion questions in a closed loop by one client. Every answer
// must be byte-identical to the one the question got at set-up, in
// every server instance of the run.
//
// One client, not two: with two, the client, the gateway and the
// backend saturate both cores, and a busy spell on the shared host then
// moved whole sets of runs by 25–30% (a CPU hog inside the VM cut two
// clients' throughput by 19% and left one client's unharmed). One
// client leaves a core of headroom, so the run measures the path's
// latency rather than the host's contention.
func runAskHot(e *runEnv) (*result, error) {
	ctx := context.Background()
	qs := conclusionQuestions(e)
	ids := make([]string, e.sizes.hotSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("hot-%02d", i)
	}
	ref := map[string][]byte{}
	m := &measured{}
	ask := func(c *client, n int) error {
		id, q := ids[(n/len(qs))%len(ids)], qs[n%len(qs)]
		return c.op(ctx, func(ctx context.Context) error {
			body, err := c.post(ctx, "ask", "/v1/sessions/"+id+"/ask", question{q})
			if err != nil {
				return err
			}
			if !bytes.Equal(body, ref[q]) {
				return fmt.Errorf("ask %q on %s: answer differs from the set-up answer", q, id)
			}
			return nil
		})
	}
	err := e.instances(m, topoSpec{gateway: true},
		func(c *client) error {
			if err := each(len(ids), func(i int) error {
				_, err := c.post(ctx, "create", "/v1/sessions", map[string]any{"id": ids[i], "train": true})
				return err
			}); err != nil {
				return err
			}
			for _, q := range qs {
				body, err := c.post(ctx, "ask", "/v1/sessions/"+ids[0]+"/ask", question{q})
				if err != nil {
					return err
				}
				if !sameAs(ref, q, body) {
					return fmt.Errorf("ask %q: answer differs between server instances", q)
				}
			}
			return nil
		},
		func(c *client) error {
			closedLoop(1, 0, times(e.sizes.hotWarmup), &m.extra, func(_, n int) error { return ask(c, n) })
			return nil
		},
		func(c *client, more func(int) bool) {
			closedLoop(1, 0, more, &m.ops, func(_, n int) error { return ask(c, n) })
		})
	if err != nil {
		return nil, err
	}
	return e.report("ask-hot", m, ladderInput{questions: qs, top: topAsk})
}

// churnQuestion is the n-th distinct question of an ask-churn run:
// never repeated, so the knowledge-text cache cannot serve it.
func churnQuestion(seed uint64, n int) string {
	topics := [...]string{
		"transatlantic cable capacity", "the Nordic power grid", "submarine cable repeaters",
		"datacenter availability in Asia", "BGP route stability", "DNS resolution",
		"the Brazil to Europe cable", "satellite links",
	}
	return fmt.Sprintf("How did event %d of series %d affect %s?", n, seed, topics[n%len(topics)])
}

// runAskChurn keeps many more conversations than resident sessions: 256
// sessions, each trained and run through one /learn so its snapshot
// carries a delta over the shared trained segment, behind a backend
// that holds 32. Two clients ask random sessions distinct questions, so
// nearly every ask restores a session from disk and evicts another.
// Every 16th ask is a canary conclusion question whose answer must
// equal the one the session gave before it was ever evicted.
//
// Each client thinks for churnThink between asks. Unpaced, the two
// clients drive about 2,000 evictions a second, each writing a
// snapshot, and throughput then follows the shared disk of the machine
// rather than the server: on the 2-core VM the bounds were set on it
// swung from 2,300 to 1,300 asks/s between runs minutes apart, and was
// steady on tmpfs. Paced to about 400 asks/s the disk keeps up, and the
// restore path's latency is what the run measures.
//
// About one ask in 10^4 loses a race: the handler looks the session up,
// the other client's restore evicts it (it was the least recently
// used), and the ask finds it closed (409). That ask is retried once
// and counted in client.retries.
func runAskChurn(e *runEnv) (*result, error) {
	ctx := context.Background()
	qs := conclusionQuestions(e)
	n := e.sizes.churnSessions
	ids := make([]string, n)
	canary := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("churn-%03d", i)
		canary[i] = qs[(i+3)%len(qs)]
	}
	ref := map[string][]byte{}
	var refMu sync.Mutex
	m := &measured{}
	rngs := []*rand.Rand{e.rng(1), e.rng(2)} // one per closed-loop worker
	var asked []string                       // the traced run's questions, for the ladder
	var askedMu sync.Mutex
	ask := func(c *client, w, k int) error {
		i := rngs[w].IntN(n)
		q := churnQuestion(e.seed, k)
		if k%16 == 15 {
			q = canary[i]
		}
		if e.tr != nil {
			askedMu.Lock()
			asked = append(asked, q)
			askedMu.Unlock()
		}
		return c.op(ctx, func(ctx context.Context) error {
			path := "/v1/sessions/" + ids[i] + "/ask"
			body, err := c.post(ctx, "ask", path, question{q})
			if evictedMidRequest(err) {
				m.retries.Add(1)
				body, err = c.post(ctx, "ask", path, question{q})
			}
			if err != nil {
				return err
			}
			if q == canary[i] && !bytes.Equal(body, ref[ids[i]]) {
				return fmt.Errorf("canary on %s: answer differs from the unevicted answer", ids[i])
			}
			return nil
		})
	}
	ts := topoSpec{capacity: e.sizes.churnCapacity, snapshots: true}
	err := e.instances(m, ts,
		func(c *client) error {
			return each(n, func(i int) error {
				path := "/v1/sessions/" + ids[i]
				if _, err := c.post(ctx, "create", "/v1/sessions", map[string]any{"id": ids[i], "train": true}); err != nil {
					return err
				}
				if _, err := c.post(ctx, "learn", path+"/learn", question{qs[i%len(qs)]}); err != nil {
					return err
				}
				body, err := c.post(ctx, "ask", path+"/ask", question{canary[i]})
				if err != nil {
					return err
				}
				refMu.Lock()
				defer refMu.Unlock()
				if !sameAs(ref, ids[i], body) {
					return fmt.Errorf("canary on %s: answer differs between server instances", ids[i])
				}
				return nil
			})
		},
		func(c *client) error {
			closedLoop(clients, churnThink, times(e.sizes.churnWarmup), &m.extra, func(w, k int) error { return ask(c, w, k) })
			return nil
		},
		func(c *client, more func(int) bool) {
			closedLoop(clients, churnThink, more, &m.ops, func(w, k int) error { return ask(c, w, k) })
		})
	if err != nil {
		return nil, err
	}
	return e.report("ask-churn", m, ladderInput{questions: asked, top: topAsk})
}

// runInvestigate is the paper's self-learning loop as the operator sees
// it, against websimd -model remote and an llm stub answering after
// 2ms. One analyst, in a closed loop: create a fresh session, subscribe
// to its events, POST /learn a conclusion question, read the stream to
// its end, delete the session. The final answer and rounds must be
// identical per question, and the event IDs contiguous, ending in the
// answer.
func runInvestigate(e *runEnv) (*result, error) {
	ctx := context.Background()
	qs := conclusionQuestions(e)
	m := &measured{}
	ref := map[string][]byte{}
	var mu sync.Mutex
	investigate := func(c *client, n int, firstRound *[]time.Duration) error {
		q := qs[n%len(qs)]
		return c.op(ctx, func(ctx context.Context) error {
			body, first, err := c.investigateOnce(ctx, fmt.Sprintf("inv-%06d", n), q)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if !sameAs(ref, q, body) {
				return fmt.Errorf("investigation of %q differs from its first run", q)
			}
			if firstRound != nil {
				*firstRound = append(*firstRound, first)
			}
			return nil
		})
	}
	ts := topoSpec{remote: true, llmLatency: 2 * time.Millisecond}
	err := e.instances(m, ts,
		func(*client) error { return nil },
		func(c *client) error {
			// One investigation per question, which in the first
			// instance fixes each question's reference result.
			closedLoop(1, 0, times(len(qs)), &m.extra, func(_, n int) error { return investigate(c, n, nil) })
			return nil
		},
		func(c *client, more func(int) bool) {
			closedLoop(1, 0, more, &m.ops, func(_, n int) error { return investigate(c, n, &m.firstRound) })
		})
	if err != nil {
		return nil, err
	}
	return e.report("investigate", m, ladderInput{questions: qs, top: topInvestigate, remote: true})
}

// investigateOnce runs one investigation on a fresh session and returns
// the /learn response and the time from sending it to the first round
// event. It uses two connections: the event stream and the requests.
func (c *client) investigateOnce(ctx context.Context, id, q string) ([]byte, time.Duration, error) {
	path := "/v1/sessions/" + id
	if _, err := c.post(ctx, "create", "/v1/sessions", map[string]any{"id": id}); err != nil {
		return nil, 0, err
	}
	resp, done, err := c.send(ctx, "events", http.MethodGet, path+"/events", nil)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		done()
		return nil, 0, fmt.Errorf("GET %s/events: %d", path, resp.StatusCode)
	}
	evc := make(chan []sseEvent, 1)
	go func() {
		var evs []sseEvent
		_ = readSSE(resp.Body, func(ev sseEvent) { evs = append(evs, ev) })
		resp.Body.Close()
		done()
		evc <- evs
	}()
	sent := time.Now()
	body, err := c.post(ctx, "learn", path+"/learn", question{q})
	evs := <-evc
	if err != nil {
		return nil, 0, err
	}
	var first time.Duration
	for i, ev := range evs {
		if i > 0 && ev.id != evs[i-1].id+1 {
			return nil, 0, fmt.Errorf("%s: event ids not contiguous: %d after %d", id, ev.id, evs[i-1].id)
		}
		if ev.typ == "round" && first == 0 {
			first = ev.at.Sub(sent)
		}
	}
	if len(evs) == 0 || evs[len(evs)-1].typ != "answer" || first == 0 {
		return nil, 0, fmt.Errorf("%s: event stream did not carry a round and end in the answer (%d events)", id, len(evs))
	}
	if _, err := c.call(ctx, "delete", http.MethodDelete, path, nil); err != nil {
		return nil, 0, err
	}
	return body, first, nil
}

// incidentBatches returns the batches one process lifetime files: the
// simulator batches SimBatch(1..K), each in the seed's filing order.
// The batch contents are fixed rather than seeded because their sizes
// differ by seed (41 to 58 filings), and the store's cost grows with
// everything filed before, so seeded contents would make runs of
// different seeds do different amounts of work.
func incidentBatches(e *runEnv) [][]incident.Filing {
	out := make([][]incident.Filing, e.sizes.incidentBatches)
	for i := range out {
		b := incident.SimBatch(uint64(i + 1))
		e.rng(uint64(100+i)).Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		out[i] = b
	}
	return out
}

// pipelineStats is the part of GET /v1/stats the drain checks read.
type pipelineStats struct {
	Incidents struct {
		Filed         int `json:"filed"`
		QueueDepth    int `json:"queue_depth"`
		Claimed       int `json:"claimed"`
		Investigating int `json:"investigating"`
		Resolved      int `json:"resolved"`
		Escalated     int `json:"escalated"`
		Leaders       int `json:"leaders"`
		Followers     int `json:"followers"`
	} `json:"incidents"`
}

// runIncidentDrain is the autonomous pipeline with a durable queue:
// websimd -incident-workers 2 -snapshots DIR, filed K batches over
// POST /v1/incidents, one batch at a time, each drained before the
// next (GET /v1/stats polled every 2ms). The store rewrites itself on
// every transition, so each batch costs more than the last; the unit of
// work is therefore a whole process lifetime of K batches, repeated on
// a fresh process until the time is up. Every incident of a batch must
// end terminal, and every type must have had a leader. The processor
// claims incidents as their filings arrive, so how a batch splits into
// groups — and so its leader, follower and escalation counts — follows
// arrival timing; the traced run reports those counts per batch.
func runIncidentDrain(e *runEnv) (*result, error) {
	ctx := context.Background()
	batches := incidentBatches(e)
	ts := topoSpec{snapshots: true, incidentWorkers: 2}
	m := &measured{}
	deadline := time.Now().Add(e.measureFor())
	for cycle := 0; cycle == 0 || time.Now().Before(deadline) || len(m.setup) < e.sizes.setups; cycle++ {
		t0 := time.Now()
		top, err := e.launch(ts)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		if cycle > 0 && !time.Now().Before(deadline) {
			top.stop() // a set-up sample only
			continue
		}
		c := newClient(top.base, 1, e.tr)
		e.phase(m, top, c, func() {
			for b, batch := range batches {
				var before pipelineStats
				if err := c.get(ctx, "stats", "/v1/stats", &before); err != nil {
					m.extra.record(0, err)
					return
				}
				for _, f := range batch {
					t0 := time.Now()
					err := c.op(ctx, func(ctx context.Context) error {
						_, err := c.post(ctx, "file", "/v1/incidents", f)
						return err
					})
					m.ops.record(time.Since(t0), err)
				}
				m.batches++
				m.extra.record(0, c.awaitDrain(ctx, b, batch, before))
			}
		})
		m.rss = append(m.rss, peakRSSMB(top.serverPIDs()))
		c.close()
		top.stop()
	}
	return e.report("incident-drain", m, ladderInput{top: topFile, batches: batches})
}

// awaitDrain polls GET /v1/stats every 2ms until every incident filed
// so far is terminal, then checks the batch's outcome against the
// counters read before it was filed.
func (c *client) awaitDrain(ctx context.Context, b int, batch []incident.Filing, before pipelineStats) error {
	deadline := time.Now().Add(60 * time.Second)
	var st pipelineStats
	for {
		if err := c.get(ctx, "stats", "/v1/stats", &st); err != nil {
			return err
		}
		in := st.Incidents
		if in.QueueDepth+in.Claimed+in.Investigating == 0 && in.Resolved+in.Escalated == in.Filed {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("batch %d: not drained after 60s: %+v", b, in)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d, p := st.Incidents, before.Incidents
	filed, terminal := d.Filed-p.Filed, d.Resolved-p.Resolved+d.Escalated-p.Escalated
	leaders, followers := d.Leaders-p.Leaders, d.Followers-p.Followers
	types := map[string]bool{}
	for _, f := range batch {
		types[f.Type] = true
	}
	switch {
	case filed != len(batch) || terminal != len(batch):
		return fmt.Errorf("batch %d: %d filed, %d terminal, want %d of each", b, filed, terminal, len(batch))
	case leaders < len(types) || leaders+followers > len(batch):
		return fmt.Errorf("batch %d: %d leaders and %d followers for %d incidents of %d types", b, leaders, followers, len(batch), len(types))
	}
	return nil
}
