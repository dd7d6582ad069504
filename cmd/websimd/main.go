// Command websimd serves the simulated Internet AND a multi-user agent
// service over HTTP: curl (or any client) can search and fetch the
// simulated web, and create long-lived research-agent sessions that
// train, answer, self-learn, plan and report on demand.
//
//	websimd [-addr :8080] [-seed N] [-social] [-latency 0ms]
//	        [-capacity 64] [-snapshots DIR] [-timeout 30s]
//	        [-model sim|ensemble|remote] [-retrieval-workers 0]
//	        [-max-inflight 0]
//	        [-incident-workers 0] [-incident-max-turns 4] [-incident-sim]
//
// Gateway mode (scale-out tier; see internal/gateway and API.md):
//
//	websimd -gateway -backends host1:8081,host2:8081 [-addr :8080]
//	websimd -gateway -spawn 4 [-addr :8080] [backend flags...]
//
// A gateway consistent-hashes session IDs (and incident-<id> keys)
// across the backends, reverse-proxies every /v1 route to the owner,
// streams SSE through with per-event flush, and fans GET /v1/stats and
// GET /v1/metrics out to all backends with merged results. -spawn N
// starts N child websimd backends from this binary on loopback ports,
// sharing a snapshot directory so ring changes migrate sessions
// between them; backend flags given alongside -spawn propagate to the
// children.
//
// Simulated-web API:
//
//	GET /search?q=solar+storms&k=5
//	GET /fetch?url=https://...
//	GET /healthz
//
// Agent session API (see internal/session; the old unversioned aliases
// were removed and now answer 404 with the standard error envelope):
//
//	POST   /v1/sessions                create (optionally train) a session
//	GET    /v1/sessions                list sessions
//	GET    /v1/sessions/{id}           session status
//	DELETE /v1/sessions/{id}           close and discard a session
//	POST   /v1/sessions/{id}/train     run role-goal training
//	POST   /v1/sessions/{id}/ask       answer from current knowledge
//	POST   /v1/sessions/{id}/learn     self-learning investigation
//	POST   /v1/sessions/{id}/plan      propose a response plan
//	POST   /v1/sessions/{id}/report    investigate + markdown report
//	POST   /v1/sessions/{id}/snapshot  persist session state to disk
//	POST   /v1/sessions/{id}/drain     snapshot + close for migration
//	GET    /v1/sessions/{id}/trace     the retained event log (audit trail)
//	GET    /v1/sessions/{id}/events    live investigation steps (SSE)
//	GET    /v1/stats                   namespaced runtime counters
//	GET    /v1/metrics                 Prometheus text exposition
//
// Autonomous incident pipeline (off by default; see internal/incident
// and API.md). -incident-workers N > 0 enables it: incidents filed over
// the API (or generated from the built-in simulators with
// -incident-sim) are claimed, grouped by type, and investigated
// unattended by a leader-follower processor pool. -incident-max-turns
// bounds each leader's self-learning rounds before the group escalates.
// When -snapshots is set, the queue persists to incidents.json in the
// same directory and survives restarts: an append-only journal that
// gains one JSON line per filing, reopen and terminal transition, and
// that startup replays and compacts to one line per incident. The
// journal belongs to one process: -gateway -spawn N > 1 rejects
// -incident-workers, and backends given to -backends must not share a
// -snapshots directory while running the pipeline.
//
//	POST   /v1/incidents              file an incident
//	GET    /v1/incidents               list incidents (paginated envelope)
//	GET    /v1/incidents/{id}          full record incl. event log
//	POST   /v1/incidents/{id}/resolve  manually resolve
//	POST   /v1/incidents/{id}/escalate manually escalate
//
// -model picks the default LLM backend for new sessions (a per-session
// "model" field in POST /v1/sessions overrides it). The remote backend
// reads REPRO_LLM_ENDPOINT / REPRO_LLM_API_KEY / REPRO_LLM_MODEL and
// sends one prompt per chat-completions request; REPRO_LLM_HEDGE_DELAY,
// when set, hedges an attempt that outlives it. Backends started by
// -gateway -spawn inherit all four from the gateway's environment.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/evalcache"
	"repro/internal/gateway"
	"repro/internal/incident"
	"repro/internal/llm/backend"
	"repro/internal/session"
	"repro/internal/websim"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Uint64("seed", 42, "corpus seed")
	social := flag.Bool("social", false, "enable the social-media crawler extension")
	latency := flag.Duration("latency", 0, "simulated per-request latency")
	capacity := flag.Int("capacity", 64, "max live agent sessions (LRU eviction past it)")
	snapshots := flag.String("snapshots", "", "directory for session snapshots (enables restore)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout for agent calls")
	model := flag.String("model", "", "default LLM backend for new sessions: sim, ensemble, remote (empty = sim)")
	retrievalWorkers := flag.Int("retrieval-workers", 0, "concurrent web requests per self-learning round (0 = min(GOMAXPROCS, 8), 1 = sequential)")
	incidentWorkers := flag.Int("incident-workers", 0, "incident-pipeline worker pool size (0 = pipeline disabled)")
	incidentMaxTurns := flag.Int("incident-max-turns", 4, "self-learning rounds per leader investigation before the group escalates")
	incidentSim := flag.Bool("incident-sim", false, "seed the incident queue from the built-in storm + BGP simulators at startup")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent agent operations on this node (0 = unlimited)")
	gatewayMode := flag.Bool("gateway", false, "run as a gateway that consistent-hashes sessions across backends")
	backends := flag.String("backends", "", "comma-separated backend addresses for -gateway")
	spawn := flag.Int("spawn", 0, "spawn N child websimd backends for -gateway")
	flag.Parse()

	if err := validateFlags(*gatewayMode, *backends, *spawn, *incidentSim, *incidentWorkers, *maxInFlight); err != nil {
		fmt.Fprintf(os.Stderr, "websimd: %v\n", err)
		os.Exit(2)
	}

	if !backend.Known(*model) {
		fmt.Fprintf(os.Stderr, "websimd: unknown model %q (known: %s)\n", *model, strings.Join(backend.Names(), ", "))
		os.Exit(2)
	}

	if *gatewayMode {
		gatewayMain(*addr, *backends, *spawn, *snapshots)
		return
	}

	opts := websim.Options{EnableSocial: *social, Latency: *latency}
	eng := evalcache.Engine(*seed, opts)
	mgr := session.NewManager(session.ManagerConfig{
		Capacity:       *capacity,
		SnapshotDir:    *snapshots,
		RequestTimeout: *timeout,
		MaxInFlight:    *maxInFlight,
		Defaults: session.Config{
			Seed:        *seed,
			Model:       *model,
			WebOptions:  websim.Options{EnableSocial: *social},
			AgentConfig: agent.Config{RetrievalWorkers: *retrievalWorkers},
		},
	})

	// The incident pipeline mounts its /v1 routes and stats block as a
	// session.Extension, but only runs its processor pool when enabled.
	var exts []session.Extension
	if *incidentWorkers > 0 {
		storePath := ""
		if *snapshots != "" {
			storePath = filepath.Join(*snapshots, "incidents.json")
		}
		store := incident.NewStore(incident.StoreConfig{Path: storePath})
		if err := store.Load(); err != nil {
			log.Fatalf("websimd: restore incident queue: %v", err)
		}
		proc := incident.NewProcessor(store, mgr, incident.ProcessorConfig{
			Workers:  *incidentWorkers,
			MaxTurns: *incidentMaxTurns,
			Session:  mgr.Config().Defaults,
		})
		if *incidentSim {
			if _, err := incident.FileAll(store, incident.SimBatch(*seed)); err != nil {
				log.Fatalf("websimd: file simulator incidents: %v", err)
			}
		}
		go proc.Run(context.Background())
		exts = append(exts, &incident.API{Store: store, Proc: proc})
		fmt.Printf("websimd: incident pipeline enabled (workers=%d, max-turns=%d, sim=%v)\n",
			*incidentWorkers, *incidentMaxTurns, *incidentSim)
	}

	agents := session.Handler(mgr, exts...)
	mux := http.NewServeMux()
	mux.Handle("/v1/", agents)
	mux.Handle("/sessions", agents)
	mux.Handle("/sessions/", agents)
	mux.Handle("/stats", agents)
	mux.Handle("/", websim.Handler(eng))
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("websimd: serving the simulated Internet and agent sessions on %s (social=%v, capacity=%d, model=%s)\n",
		*addr, *social, *capacity, modelName(*model))
	log.Fatal(srv.ListenAndServe())
}

func modelName(m string) string {
	if m == "" {
		return backend.DefaultName
	}
	return m
}

// validateFlags rejects flag combinations that would start a broken
// process. All of these exit 2 before anything listens.
func validateFlags(gatewayMode bool, backends string, spawn int, incidentSim bool, incidentWorkers, maxInFlight int) error {
	if maxInFlight < 0 {
		return fmt.Errorf("-max-inflight must be >= 0 (got %d)", maxInFlight)
	}
	if spawn < 0 {
		return fmt.Errorf("-spawn must be >= 0 (got %d)", spawn)
	}
	if !gatewayMode {
		if backends != "" {
			return fmt.Errorf("-backends requires -gateway")
		}
		if spawn > 0 {
			return fmt.Errorf("-spawn requires -gateway")
		}
		return nil
	}
	if incidentSim {
		return fmt.Errorf("-gateway cannot run -incident-sim: simulators file incidents on backends, not the gateway")
	}
	if backends != "" && spawn > 0 {
		return fmt.Errorf("-backends and -spawn are mutually exclusive")
	}
	if spawn > 1 && incidentWorkers > 0 {
		// Spawned backends share one snapshot dir, so they would share one
		// incidents.json journal, and each restart's compaction would
		// silently drop the other backends' later writes.
		return fmt.Errorf("-spawn %d cannot run -incident-workers: the backends would share one incident journal", spawn)
	}
	if backends == "" && spawn == 0 {
		return fmt.Errorf("-gateway needs -backends host:port,... or -spawn N")
	}
	if backends != "" {
		if _, err := gateway.ParseBackends(backends); err != nil {
			return fmt.Errorf("-backends: %v", err)
		}
	}
	return nil
}

// childArgs rebuilds the backend flag set for spawned children: every
// explicitly-set flag except the gateway/topology ones, plus the
// shared snapshot directory migration depends on.
func childArgs(snapshots string) []string {
	skip := map[string]bool{"addr": true, "gateway": true, "backends": true, "spawn": true, "snapshots": true, "incident-sim": true}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if skip[f.Name] {
			return
		}
		args = append(args, "-"+f.Name, f.Value.String())
	})
	return append(args, "-snapshots", snapshots)
}

// gatewayMain runs the gateway tier: resolve (or spawn) the backends,
// build the ring, serve the proxy.
func gatewayMain(addr, backendList string, spawn int, snapshots string) {
	var (
		addrs    []string
		children []gateway.Child
	)
	if spawn > 0 {
		// Children must share one snapshot directory or sessions cannot
		// migrate between them.
		if snapshots == "" {
			dir, err := os.MkdirTemp("", "websimd-gateway-*")
			if err != nil {
				log.Fatalf("websimd: create shared snapshot dir: %v", err)
			}
			snapshots = dir
			fmt.Printf("websimd: gateway using shared snapshot dir %s\n", snapshots)
		}
		var err error
		children, err = gateway.SpawnChildren(spawn, childArgs(snapshots), 30*time.Second)
		if err != nil {
			log.Fatalf("websimd: %v", err)
		}
		for _, c := range children {
			addrs = append(addrs, c.Addr)
		}
	} else {
		addrs, _ = gateway.ParseBackends(backendList) // validated earlier
	}

	gw := gateway.New(gateway.Config{
		HealthInterval: 2 * time.Second,
		Logf:           log.Printf,
	}, addrs)

	// The gateway owns its children: a signal tears the whole tier down.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		gw.Close()
		gateway.KillChildren(children)
		os.Exit(0)
	}()

	srv := &http.Server{
		Addr:              addr,
		Handler:           gw,
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("websimd: gateway on %s proxying %d backends: %s\n",
		addr, len(addrs), strings.Join(addrs, ", "))
	err := srv.ListenAndServe()
	gateway.KillChildren(children)
	log.Fatal(err)
}
