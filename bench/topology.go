package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/evalcache"
	"repro/internal/gateway"
	"repro/internal/incident"
	"repro/internal/llm"
	"repro/internal/llm/backend"
	"repro/internal/session"
	"repro/internal/websim"
)

// corpusSeed is the world every server runs on: websimd's default. The
// workload seed shapes the traffic, never the world.
const corpusSeed = 42

// topoSpec is a workload's server topology. The untraced run launches
// it from the shipped binaries; the traced run builds the same shape in
// process from the public constructors.
type topoSpec struct {
	gateway         bool          // websimd -gateway -spawn 1 in front of one backend
	capacity        int           // -capacity (0 = websimd's default)
	snapshots       bool          // -snapshots DIR
	remote          bool          // -model remote, against an llm stub
	llmLatency      time.Duration // the stub's injected completion latency
	incidentWorkers int           // -incident-workers
}

// topology is one launched instance of a topoSpec.
type topology struct {
	base    string  // the front door: gateway or backend
	servers []*proc // measured processes (llmstub excluded: it stands in for an external service)
	aux     []*proc
	stack   *stack // the in-process stack of a traced run
}

// serverPIDs lists every measured server process, a gateway's spawned
// backend included.
func (t *topology) serverPIDs() []int {
	var pids []int
	for _, p := range t.servers {
		pids = append(pids, p.pids()...)
	}
	return pids
}

func (t *topology) stop() {
	for _, p := range t.servers {
		p.stop()
	}
	for _, p := range t.aux {
		p.stop()
	}
	if t.stack != nil {
		t.stack.stop()
	}
}

// launch starts the topology the run's mode calls for.
func (e *runEnv) launch(ts topoSpec) (*topology, error) {
	dir, err := os.MkdirTemp(e.work, "topo-*")
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		return e.launchInProcess(ts, dir)
	}
	return e.launchBinaries(ts, dir)
}

func (e *runEnv) launchBinaries(ts topoSpec, dir string) (*topology, error) {
	t := &topology{}
	var env []string
	if ts.remote {
		stub, err := startProc("llmstub", e.llmstub, dir, nil, "-latency", ts.llmLatency.String())
		if err != nil {
			return nil, err
		}
		t.aux = append(t.aux, stub)
		env = append(env, backend.EnvEndpoint+"=http://"+stub.addr)
	}
	var args []string
	if ts.gateway {
		args = append(args, "-gateway", "-spawn", "1")
	}
	if ts.capacity > 0 {
		args = append(args, "-capacity", strconv.Itoa(ts.capacity))
	}
	if ts.snapshots || ts.gateway {
		// A gateway hands its directory to the backends it spawns; left
		// unset it would create one outside the run's directory.
		args = append(args, "-snapshots", filepath.Join(dir, "snapshots"))
	}
	if ts.remote {
		args = append(args, "-model", "remote")
	}
	if ts.incidentWorkers > 0 {
		args = append(args, "-incident-workers", strconv.Itoa(ts.incidentWorkers))
	}
	ws, err := startProc("websimd", e.websimd, dir, env, args...)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.servers = append(t.servers, ws)
	t.base = "http://" + ws.addr
	return t, nil
}

// stack is the traced run's in-process server: the same handlers
// websimd mounts, each HTTP layer on its own loopback listener and
// wrapped in a span, with every model call going through a span-wrapped
// backend registered under the name sessions are configured with.
type stack struct {
	mgr     *session.Manager
	exts    []session.Extension
	gw      *gateway.Gateway
	servers []*http.Server
	serving sync.WaitGroup // one per server's Serve loop
	cancel  context.CancelFunc
	done    chan struct{} // closed when the incident processor has stopped
}

func (e *runEnv) launchInProcess(ts topoSpec, dir string) (*topology, error) {
	st := &stack{}
	t := &topology{stack: st}
	model, stubURL := "bench-sim", ""
	if ts.remote {
		url, err := st.serve(stubHandler(ts.llmLatency))
		if err != nil {
			return nil, err
		}
		model, stubURL = "bench-remote", url
	}
	registerTraced(model, stubURL, e.tr)

	cfg := session.ManagerConfig{
		Capacity: ts.capacity,
		Defaults: session.Config{Seed: corpusSeed, Model: model},
	}
	if ts.snapshots || ts.gateway {
		cfg.SnapshotDir = filepath.Join(dir, "snapshots")
	}
	st.mgr = session.NewManager(cfg)
	if ts.incidentWorkers > 0 {
		path := ""
		if cfg.SnapshotDir != "" {
			path = filepath.Join(cfg.SnapshotDir, "incidents.json")
		}
		store := incident.NewStore(incident.StoreConfig{Path: path})
		if err := store.Load(); err != nil {
			t.stop()
			return nil, err
		}
		proc := incident.NewProcessor(store, st.mgr, incident.ProcessorConfig{
			Workers:  ts.incidentWorkers,
			MaxTurns: 4,
			Session:  st.mgr.Config().Defaults,
		})
		ctx, cancel := context.WithCancel(context.Background())
		st.cancel, st.done = cancel, make(chan struct{})
		go func() {
			defer close(st.done)
			proc.Run(ctx)
		}()
		st.exts = append(st.exts, &incident.API{Store: store, Proc: proc})
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", session.Handler(st.mgr, st.exts...))
	mux.Handle("/", websim.Handler(evalcache.Engine(corpusSeed, websim.Options{})))
	backendURL, err := st.serve(e.tr.handler("handler", mux))
	if err != nil {
		t.stop()
		return nil, err
	}
	t.base = backendURL
	if ts.gateway {
		st.gw = gateway.New(gateway.Config{HealthInterval: 2 * time.Second}, []string{backendURL[len("http://"):]})
		gwURL, err := st.serve(e.tr.handler("gateway", st.gw))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.base = gwURL
	}
	return t, nil
}

// serve runs h on a fresh loopback listener and returns its base URL.
func (st *stack) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(l) // http.ErrServerClosed once stop closes it
	}()
	return "http://" + l.Addr().String(), nil
}

func (st *stack) stop() {
	if st.cancel != nil {
		st.cancel()
		<-st.done
	}
	for _, srv := range st.servers {
		_ = srv.Close()
	}
	st.serving.Wait()
	if st.gw != nil {
		st.gw.Close()
	}
	if st.mgr != nil {
		st.mgr.Shutdown()
	}
}

// stats returns the backend's /v1/stats body, read in process so the
// read itself leaves no span.
func (st *stack) stats() map[string]float64 {
	out := map[string]float64{}
	data, err := json.Marshal(session.StatsBlocks(st.mgr, st.exts...))
	if err != nil {
		return out
	}
	var root map[string]any
	if err := json.Unmarshal(data, &root); err != nil {
		return out
	}
	flatten("", root, out)
	if st.gw != nil {
		gs := st.gw.Stats()
		out["gateway.proxied"] = float64(gs.Proxied)
		out["gateway.proxy_errors"] = float64(gs.ProxyErrors)
	}
	return out
}

// flatten maps nested JSON numbers to dotted keys: block.counter.
func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flatten(key, c, out)
		}
	case float64:
		out[prefix] = t
	}
}

// registerTraced registers a backend that wraps the configured model —
// the simulated model, or the remote client pointed at url — in model
// spans.
func registerTraced(name, url string, tr *tracer) {
	backend.Register(name, func(o backend.Options) (llm.Model, error) {
		inner := "sim"
		if url != "" {
			inner, o.Endpoint = "remote", url
		}
		m, err := backend.NewWith(inner, o)
		if err != nil {
			return nil, err
		}
		return &tracedModel{inner: m, t: tr}, nil
	})
}

// stubHandler is the in-process stand-in for llmstub: an
// OpenAI-compatible chat-completions endpoint answering every user
// message with the simulated model after the injected latency.
func stubHandler(latency time.Duration) http.Handler {
	type message struct {
		Role    string `json:"role"`
		Content string `json:"content"`
	}
	type choice struct {
		Message message `json:"message"`
	}
	model := llm.NewSim()
	complete := func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(latency)
		var req struct {
			Model    string    `json:"model"`
			Messages []message `json:"messages"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Messages) == 0 {
			http.Error(w, `{"error":{"message":"malformed request"}}`, http.StatusBadRequest)
			return
		}
		choices := make([]choice, 0, len(req.Messages))
		for _, m := range req.Messages {
			out, err := model.Complete(r.Context(), m.Content)
			if err != nil {
				http.Error(w, fmt.Sprintf(`{"error":{"message":%q}}`, err.Error()), http.StatusBadRequest)
				return
			}
			choices = append(choices, choice{Message: message{Role: "assistant", Content: out}})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"model": req.Model, "choices": choices})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /chat/completions", complete)
	mux.HandleFunc("POST /v1/chat/completions", complete)
	return mux
}
