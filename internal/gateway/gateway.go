package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/session"
)

// Config configures a Gateway.
type Config struct {
	// HealthInterval is how often each backend's /healthz is probed.
	// <=0 disables the prober (tests drive membership explicitly).
	HealthInterval time.Duration
	// Logf logs membership and migration events. Nil means silent.
	Logf func(format string, args ...any)
}

const (
	// healthTimeout bounds one probe.
	healthTimeout = time.Second
	// healthFails is the consecutive-failure count after which a
	// backend is ejected from the ring.
	healthFails = 3
	// migrateTimeout bounds the drain sweep of one membership change.
	migrateTimeout = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// node is one backend: its address and a dedicated keep-alive client,
// so each backend gets its own warm connection pool.
type node struct {
	addr   string
	client *http.Client
	fails  atomic.Int32
}

func newNode(addr string) *node {
	return &node{addr: addr, client: &http.Client{
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			// SSE responses stream indefinitely; never time out reads
			// at the transport. Request contexts bound each proxy hop.
		},
	}}
}

// Gateway consistent-hashes session keys across backend websimd
// processes and reverse-proxies /v1 to the owner. It is an
// http.Handler.
type Gateway struct {
	cfg Config

	// mu serializes membership changes; the ring itself is swapped
	// atomically so request routing never takes the lock.
	mu    sync.Mutex
	ring  atomic.Pointer[Ring]
	nodes sync.Map // addr -> *node

	seq    atomic.Int64 // generated session IDs (g-s%06d)
	incSeq atomic.Int64 // pre-assigned incident IDs (inc-g%06d)

	ejected atomic.Int64

	reg         *metrics.Registry
	hopHist     *metrics.Histogram
	proxied     *metrics.Counter
	proxyErrors *metrics.Counter
	migrations  *metrics.Counter

	mux  *http.ServeMux
	stop chan struct{}
}

// New builds a gateway over the given backend addresses (normalized,
// deduplicated — use ParseBackends). Call Close to stop the health
// prober.
func New(cfg Config, backends []string) *Gateway {
	g := &Gateway{cfg: cfg.withDefaults(), stop: make(chan struct{})}
	g.ring.Store(NewRing(backends))
	for _, a := range g.ring.Load().Addrs() {
		g.nodes.Store(a, newNode(a))
	}
	g.reg = metrics.NewRegistry()
	g.hopHist = g.reg.Histogram("repro_gateway_proxy_seconds",
		"Wall time of one proxied request, including the backend.", nil)
	g.reg.GaugeFunc("repro_gateway_backends", "Backends on the ring.",
		func() float64 { return float64(g.ring.Load().Len()) })
	g.proxied = g.reg.Counter("repro_gateway_proxied_total", "Requests proxied to a backend.")
	g.proxyErrors = g.reg.Counter("repro_gateway_proxy_errors_total", "Proxied requests that failed to reach their backend.")
	g.migrations = g.reg.Counter("repro_gateway_migrations_total", "Sessions drained for ring changes.")
	g.mux = g.routes()
	if g.cfg.HealthInterval > 0 {
		go g.probeLoop()
	}
	return g
}

// Close stops the health prober.
func (g *Gateway) Close() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
}

func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Stats is the gateway's own /v1/stats block.
type Stats struct {
	Backends    []string `json:"backends"`
	Proxied     int64    `json:"proxied"`
	ProxyErrors int64    `json:"proxy_errors"`
	Migrations  int64    `json:"migrations"`
	Ejected     int64    `json:"ejected"`
}

// Stats returns the gateway's counters and membership.
func (g *Gateway) Stats() Stats {
	return Stats{
		Backends:    g.ring.Load().Addrs(),
		Proxied:     g.proxied.Value(),
		ProxyErrors: g.proxyErrors.Value(),
		Migrations:  g.migrations.Value(),
		Ejected:     g.ejected.Load(),
	}
}

func (g *Gateway) routes() *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})

	// Session collection: creation assigns the routing key, listing
	// fans out.
	mux.HandleFunc("POST /v1/sessions", g.createSession)
	mux.HandleFunc("GET /v1/sessions", g.fanoutList("/v1/sessions"))

	// Everything under one session routes to its ring owner. The exact
	// {id} pattern is registered separately: the {rest...} pattern alone
	// would 301-redirect /v1/sessions/{id} to a trailing slash.
	bySession := func(w http.ResponseWriter, r *http.Request) {
		g.proxyKey(w, r, r.PathValue("id"), nil)
	}
	mux.HandleFunc("/v1/sessions/{id}", bySession)
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", bySession)

	// Incidents: the processor runs each incident on session
	// "incident-<id>", so routing filings and reads by that derived key
	// co-locates the incident record with its investigation.
	mux.HandleFunc("POST /v1/incidents", g.fileIncident)
	mux.HandleFunc("GET /v1/incidents", g.fanoutList("/v1/incidents"))
	byIncident := func(w http.ResponseWriter, r *http.Request) {
		g.proxyIncident(w, r, r.PathValue("id"))
	}
	mux.HandleFunc("/v1/incidents/{id}", byIncident)
	mux.HandleFunc("/v1/incidents/{id}/{rest...}", byIncident)

	mux.HandleFunc("GET /v1/stats", g.mergedStats)
	mux.HandleFunc("GET /v1/metrics", g.mergedMetrics)

	// Gateway admin: membership inspection and changes.
	mux.HandleFunc("GET /v1/gateway", func(w http.ResponseWriter, r *http.Request) {
		session.WriteJSON(w, http.StatusOK, g.Stats())
	})
	mux.HandleFunc("POST /v1/gateway/backends", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Addr string `json:"addr"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
			session.WriteErrorCode(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		addr := NormalizeAddr(req.Addr)
		if addr == "" {
			session.WriteErrorCode(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("invalid backend address %q", req.Addr))
			return
		}
		if err := g.AddBackend(addr); err != nil {
			session.WriteErrorCode(w, http.StatusConflict, "conflict", err.Error())
			return
		}
		session.WriteJSON(w, http.StatusOK, g.Stats())
	})
	mux.HandleFunc("DELETE /v1/gateway/backends/{addr}", func(w http.ResponseWriter, r *http.Request) {
		addr := NormalizeAddr(r.PathValue("addr"))
		if err := g.RemoveBackend(addr, true); err != nil {
			session.WriteErrorCode(w, http.StatusNotFound, "not_found", err.Error())
			return
		}
		session.WriteJSON(w, http.StatusOK, g.Stats())
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		session.WriteErrorCode(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no such endpoint %s %s (the API is versioned under /v1)", r.Method, r.URL.Path))
	})
	return mux
}

// createSession routes a session create by its ID. Gateway-generated
// IDs use their own g-s prefix so they can never collide with a
// backend's local s%04d sequence.
func (g *Gateway) createSession(w http.ResponseWriter, r *http.Request) {
	g.proxyNew(w, r, &g.seq, "g-s%06d", "")
}

// fileIncident pre-assigns a globally unique incident ID (unless the
// filing carries one) and routes by the incident-<id> session key, so
// the filing lands on the backend that will also run its
// investigation.
func (g *Gateway) fileIncident(w http.ResponseWriter, r *http.Request) {
	g.proxyNew(w, r, &g.incSeq, "inc-g%06d", "incident-")
}

// proxyNew decodes a create body just far enough to learn its "id", or
// assigns one from seq formatted by idFormat, then forwards the
// re-encoded body to the owner of keyPrefix+id.
func (g *Gateway) proxyNew(w http.ResponseWriter, r *http.Request, seq *atomic.Int64, idFormat, keyPrefix string) {
	var body map[string]json.RawMessage
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil {
		session.WriteErrorCode(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if body == nil {
		body = map[string]json.RawMessage{}
	}
	var id string
	if raw, ok := body["id"]; ok {
		_ = json.Unmarshal(raw, &id)
	}
	if id == "" {
		id = fmt.Sprintf(idFormat, seq.Add(1))
		idRaw, _ := json.Marshal(id)
		body["id"] = idRaw
	}
	payload, _ := json.Marshal(body)
	g.proxyKey(w, r, keyPrefix+id, payload)
}

// proxyIncident routes a single-incident request by its derived
// session key. Incidents filed before a ring change may live on a
// backend that no longer owns the key, so a 404 from the owner falls
// back to asking every other backend.
func (g *Gateway) proxyIncident(w http.ResponseWriter, r *http.Request, id string) {
	ring := g.ring.Load()
	owner := ring.Owner("incident-" + id)
	if owner == "" {
		session.WriteErrorCode(w, http.StatusBadGateway, "bad_gateway", "no backends on the ring")
		return
	}
	// Buffer the (small) body so the fallback can resend it.
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		session.WriteErrorCode(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	addrs := []string{owner}
	for _, a := range ring.Addrs() {
		if a != owner {
			addrs = append(addrs, a)
		}
	}
	for i, addr := range addrs {
		n := g.node(addr)
		if n == nil {
			continue
		}
		last := i == len(addrs)-1
		if g.forward(w, r, n, payload, !last) {
			return
		}
	}
	session.WriteErrorCode(w, http.StatusNotFound, "not_found", "incident "+id+" not found on any backend")
}

// proxyKey streams the request to the backend owning key. A non-nil
// payload replaces the request body (already consumed by routing).
func (g *Gateway) proxyKey(w http.ResponseWriter, r *http.Request, key string, payload []byte) {
	owner := g.ring.Load().Owner(key)
	if owner == "" {
		session.WriteErrorCode(w, http.StatusBadGateway, "bad_gateway", "no backends on the ring")
		return
	}
	n := g.node(owner)
	if n == nil {
		session.WriteErrorCode(w, http.StatusBadGateway, "bad_gateway", "backend "+owner+" unavailable")
		return
	}
	g.forward(w, r, n, payload, false)
}

// forward proxies one request to n and relays the response. With
// skip404 it leaves a 404 response unrelayed and reports false so the
// caller can try the next backend. It reports true once a response has
// been written.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, n *node, payload []byte, skip404 bool) bool {
	t0 := time.Now()
	var body io.Reader = r.Body
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+n.addr+r.URL.RequestURI(), body)
	if err != nil {
		g.proxyErrors.Inc()
		session.WriteErrorCode(w, http.StatusBadGateway, "bad_gateway", err.Error())
		return true
	}
	copyHeaders(out.Header, r.Header)
	if payload != nil {
		out.Header.Set("Content-Type", "application/json")
		out.ContentLength = int64(len(payload))
	}
	resp, err := n.client.Do(out)
	if err != nil {
		g.proxyErrors.Inc()
		session.WriteErrorCode(w, http.StatusBadGateway, "bad_gateway",
			fmt.Sprintf("backend %s: %v", n.addr, err))
		return true
	}
	defer resp.Body.Close()
	if skip404 && resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return false
	}
	g.proxied.Inc()
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		streamSSE(w, resp.Body)
	} else {
		// The status is sent: a failed copy can only cut the body short.
		_, _ = io.Copy(w, resp.Body)
	}
	g.hopHist.ObserveSince(t0)
	return true
}

// node returns the client for addr, or nil once addr has left the
// ring. AddBackend stores a node before it publishes the ring that
// names it, and RemoveBackend unpublishes the ring before it deletes
// the node, so every ring member has one.
func (g *Gateway) node(addr string) *node {
	if v, ok := g.nodes.Load(addr); ok {
		return v.(*node)
	}
	return nil
}

// bufPool holds the 32KB read buffers of relayed event streams.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// streamSSE relays an event stream, flushing after every read so each
// event reaches the client as the backend emits it instead of sitting
// in the gateway's write buffer until the stream ends.
func streamSSE(w http.ResponseWriter, src io.Reader) {
	f, _ := w.(http.Flusher)
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	buf := *bp
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// hop-by-hop headers are the proxy's own business, never forwarded.
var hopHeaders = []string{"Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade"}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		dst[k] = append([]string(nil), vs...)
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}

// fanoutList merges the paginated collection at path across every
// backend: each backend answers the same (after, limit) window, the
// union re-sorts by ID, and one page of it goes out under the standard
// {"items","next"} envelope.
func (g *Gateway) fanoutList(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		after, limit, err := session.PageArgs(r)
		if err != nil {
			session.WriteErrorCode(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		type page struct {
			Items []json.RawMessage `json:"items"`
			Next  string            `json:"next"`
		}
		type keyed struct {
			id  string
			raw json.RawMessage
		}
		var (
			mu      sync.Mutex
			all     []keyed
			more    bool
			failure error
		)
		g.eachNode(func(n *node) {
			resp, err := g.get(r, n, path+"?"+r.URL.RawQuery)
			if err != nil {
				mu.Lock()
				failure = err
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			var p page
			if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
				mu.Lock()
				failure = fmt.Errorf("backend %s: %v", n.addr, err)
				mu.Unlock()
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if p.Next != "" {
				more = true
			}
			for _, raw := range p.Items {
				var item struct {
					ID string `json:"id"`
				}
				_ = json.Unmarshal(raw, &item)
				all = append(all, keyed{id: item.ID, raw: raw})
			}
		})
		if failure != nil {
			g.proxyErrors.Inc()
			session.WriteErrorCode(w, http.StatusBadGateway, "bad_gateway", failure.Error())
			return
		}
		sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
		out := session.ListPage[json.RawMessage]{Items: []json.RawMessage{}}
		for i, k := range all {
			if i >= limit {
				more = true
				break
			}
			out.Items = append(out.Items, k.raw)
		}
		if more && len(out.Items) > 0 {
			out.Next = all[len(out.Items)-1].id
		}
		_ = after // backends already applied the cursor
		session.WriteJSON(w, http.StatusOK, out)
	}
}

// mergedStats fans GET /v1/stats out to every backend and nests each
// reply under its address, next to the gateway's own block.
func (g *Gateway) mergedStats(w http.ResponseWriter, r *http.Request) {
	var (
		mu    sync.Mutex
		nodes = map[string]json.RawMessage{}
	)
	g.eachNode(func(n *node) {
		resp, err := g.get(r, n, "/v1/stats")
		if err != nil {
			errRaw, _ := json.Marshal(map[string]string{"error": err.Error()})
			mu.Lock()
			nodes[n.addr] = errRaw
			mu.Unlock()
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		if err != nil || !json.Valid(data) {
			errRaw, _ := json.Marshal(map[string]string{"error": "bad stats payload"})
			data = errRaw
		}
		mu.Lock()
		nodes[n.addr] = data
		mu.Unlock()
	})
	session.WriteJSON(w, http.StatusOK, map[string]any{
		"gateway": g.Stats(),
		"nodes":   nodes,
	})
}

// mergedMetrics serves the gateway's own registry followed by every
// backend's scrape, each sample tagged with its node label.
func (g *Gateway) mergedMetrics(w http.ResponseWriter, r *http.Request) {
	var (
		mu      sync.Mutex
		scrapes []metrics.Scrape
	)
	g.eachNode(func(n *node) {
		resp, err := g.get(r, n, "/v1/metrics")
		if err != nil {
			return // a dead backend just drops out of the scrape
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		if err != nil {
			return
		}
		mu.Lock()
		scrapes = append(scrapes, metrics.Scrape{Node: n.addr, Text: data})
		mu.Unlock()
	})
	sort.Slice(scrapes, func(i, j int) bool { return scrapes[i].Node < scrapes[j].Node })
	w.Header().Set("Content-Type", metrics.ContentType)
	g.reg.WriteProm(w)
	metrics.MergeProm(w, scrapes)
}

// eachNode runs fn concurrently for every current ring member and
// waits for all of them.
func (g *Gateway) eachNode(fn func(*node)) {
	var wg sync.WaitGroup
	for _, addr := range g.ring.Load().Addrs() {
		n := g.node(addr)
		if n == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(n)
		}()
	}
	wg.Wait()
}

// get issues a GET to one backend with the inbound request's context.
func (g *Gateway) get(r *http.Request, n *node, pathAndQuery string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, "http://"+n.addr+pathAndQuery, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("backend %s: %w", n.addr, err)
	}
	return resp, nil
}

// AddBackend joins addr to the ring, draining every session whose slot
// moves to it so the new owner restores them from the shared snapshot
// directory on first touch.
func (g *Gateway) AddBackend(addr string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.ring.Load()
	if old.Has(addr) {
		return fmt.Errorf("backend %s already on the ring", addr)
	}
	g.nodes.LoadOrStore(addr, newNode(addr))
	next := old.With(addr)
	g.drainMoved(old, next)
	g.ring.Store(next)
	g.cfg.Logf("gateway: backend %s joined (%d backends)", addr, next.Len())
	return nil
}

// RemoveBackend takes addr off the ring. Graceful removal first drains
// every session the backend holds, so successors restore them with
// nothing lost; ungraceful removal (a dead backend) just reroutes, and
// successors restore whatever the last snapshot captured.
func (g *Gateway) RemoveBackend(addr string, graceful bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.ring.Load()
	if !old.Has(addr) {
		return fmt.Errorf("backend %s not on the ring", addr)
	}
	if graceful {
		if n := g.node(addr); n != nil {
			g.drainNode(n, nil)
		}
	}
	g.ring.Store(old.Without(addr))
	g.nodes.Delete(addr)
	g.cfg.Logf("gateway: backend %s left (%d backends)", addr, g.ring.Load().Len())
	return nil
}

// drainMoved drains, on their current holder, the sessions whose owner
// changes between the two rings.
func (g *Gateway) drainMoved(old, next *Ring) {
	for _, addr := range old.Addrs() {
		n := g.node(addr)
		if n == nil {
			continue
		}
		g.drainNode(n, func(id string) bool { return next.Owner(id) != addr })
	}
}

// drainNode drains every session on n matching the filter (nil means
// all): POST /v1/sessions/{id}/drain persists the snapshot and closes
// the session, and the ring's (new) owner lazily restores it. Errors
// are logged, not fatal — an unreachable backend can't drain, and its
// sessions restore from their last snapshot anyway.
func (g *Gateway) drainNode(n *node, match func(id string) bool) {
	ctx, cancel := contextWithTimeout(migrateTimeout)
	defer cancel()
	after := ""
	for {
		url := fmt.Sprintf("http://%s/v1/sessions?limit=%d&after=%s", n.addr, session.MaxPageLimit, after)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := n.client.Do(req)
		if err != nil {
			g.cfg.Logf("gateway: drain %s: list: %v", n.addr, err)
			return
		}
		var page struct {
			Items []struct {
				ID string `json:"id"`
			} `json:"items"`
			Next string `json:"next"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			g.cfg.Logf("gateway: drain %s: decode: %v", n.addr, err)
			return
		}
		for _, it := range page.Items {
			if match != nil && !match(it.ID) {
				continue
			}
			durl := fmt.Sprintf("http://%s/v1/sessions/%s/drain", n.addr, it.ID)
			dreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, durl, nil)
			dresp, err := n.client.Do(dreq)
			if err != nil {
				g.cfg.Logf("gateway: drain %s/%s: %v", n.addr, it.ID, err)
				continue
			}
			io.Copy(io.Discard, io.LimitReader(dresp.Body, 1<<16))
			dresp.Body.Close()
			if dresp.StatusCode == http.StatusOK {
				g.migrations.Inc()
				g.cfg.Logf("gateway: migrated session %s off %s", it.ID, n.addr)
			} else {
				g.cfg.Logf("gateway: drain %s/%s: status %d", n.addr, it.ID, dresp.StatusCode)
			}
		}
		if page.Next == "" {
			return
		}
		after = page.Next
	}
}

// probeLoop ejects backends whose /healthz fails healthFails times in
// a row. Ejection is ungraceful by definition — the process is gone —
// so in-flight state since the last snapshot is lost and successors
// restore what was persisted.
func (g *Gateway) probeLoop() {
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
		}
		for _, addr := range g.ring.Load().Addrs() {
			n := g.node(addr)
			if n == nil {
				continue
			}
			if g.probe(n) {
				n.fails.Store(0)
				continue
			}
			if n.fails.Add(1) >= healthFails {
				g.ejected.Add(1)
				g.cfg.Logf("gateway: backend %s failed %d probes, ejecting", addr, healthFails)
				_ = g.RemoveBackend(addr, false)
			}
		}
	}
}

// contextWithTimeout is a background context bound to d — membership
// sweeps and probes run on the gateway's own clock, not any request's.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func (g *Gateway) probe(n *node) bool {
	ctx, cancel := contextWithTimeout(healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.addr+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
