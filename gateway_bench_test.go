// Gateway-tier measurement suite: what the consistent-hash proxy hop
// costs on a warm loopback connection, and what scale-out across
// backend processes buys when each node runs a bounded admission gate.
// scripts/bench.sh runs TestGatewayReport with REPRO_GATEWAY_OUT set to
// record the numbers as BENCH_gateway.json; under plain `go test` the
// same run checks only counts (every scale point reports its backends)
// and logs the hop overhead and scale-out factor. Wall-clock floors do
// not belong in `go test`, where a loaded machine turns them red; the
// bounded benchmark under bench/ guards these paths.
//
// The throughput workload is deliberately latency-bound, not CPU-bound:
// each backend talks to llmstub with injected completion latency and
// admits at most -max-inflight agent operations, so one backend's
// ceiling is gate/latency asks per second regardless of host cores, and
// adding backends adds capacity the way adding upstream quota would in
// production. Every ask carries a distinct question so the remote
// response cache cannot short-circuit the upstream call.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway"
)

const gatewayBenchQuestion = "Which is more vulnerable to solar activity? The fiber optic cable that connects Brazil to Europe or the one that connects the US to Europe?"

// buildGatewayBinaries compiles websimd and llmstub once into a temp
// dir shared by the whole report run.
func buildGatewayBinaries(t *testing.T) (websimd, llmstub string) {
	t.Helper()
	dir := t.TempDir()
	websimd = filepath.Join(dir, "websimd")
	llmstub = filepath.Join(dir, "llmstub")
	for bin, pkg := range map[string]string{websimd: "./cmd/websimd", llmstub: "./cmd/llmstub"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return websimd, llmstub
}

// startProc launches a server process and terminates it at test end.
// Termination starts with SIGTERM so a gateway parent runs its signal
// handler and reaps its -spawn children; a straight SIGKILL would
// orphan them and leave stray listeners for the next run.
func startProc(t *testing.T, env []string, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
}

// reserveAddr picks a free loopback address at run time: it listens on
// port 0, reads the port the kernel chose and releases it for the
// server process about to bind it, so concurrent runs and leftover
// processes cannot collide on a fixed port.
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func waitUp(t *testing.T, addr string) {
	t.Helper()
	client := &http.Client{Timeout: 500 * time.Millisecond}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s did not come up", addr)
}

// tryPost is the goroutine-safe request primitive: workers must not
// t.Fatal (FailNow from a non-test goroutine deadlocks the run), so
// they get an error back instead.
func tryPost(client *http.Client, url string, body any) ([]byte, error) {
	data, _ := json.Marshal(body)
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, out)
	}
	return out, nil
}

func benchPost(t *testing.T, client *http.Client, url string, body any) []byte {
	t.Helper()
	out, err := tryPost(client, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// gatewayBackends asks a gateway for its ring members.
func gatewayBackends(t *testing.T, client *http.Client, base string) []string {
	t.Helper()
	resp, err := client.Get(base + "/v1/gateway")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Backends []string `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Backends
}

// balancedSessionIDs picks session IDs that hash evenly: perBackend of
// them landing on every ring member, so the throughput measurement
// exercises capacity, not hash luck.
func balancedSessionIDs(addrs []string, perBackend int) []string {
	ring := gateway.NewRing(addrs, 0)
	need := map[string]int{}
	for _, a := range addrs {
		need[a] = perBackend
	}
	var ids []string
	for i := 0; len(ids) < perBackend*len(addrs); i++ {
		id := fmt.Sprintf("bench-s%05d", i)
		if owner := ring.Owner(id); need[owner] > 0 {
			need[owner]--
			ids = append(ids, id)
		}
	}
	return ids
}

// measureAskThroughput drives asks/clients parallel askers round-robin
// over the sessions, every ask a distinct question, and returns
// completed asks per second.
func measureAskThroughput(t *testing.T, client *http.Client, base string, sessions []string, asks, clients int) float64 {
	t.Helper()
	// One warmup ask per session builds agents, LLM clients and
	// connections outside the timed window. Worker goroutines report
	// failures through errs; only the test goroutine may Fatal.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	fail := func(err error) {
		mu.Lock()
		if len(errs) < 5 {
			errs = append(errs, err)
		}
		mu.Unlock()
	}
	for _, id := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tryPost(client, base+"/v1/sessions/"+id+"/ask",
				map[string]any{"question": "warmup: describe the backbone topology of " + id}); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()

	work := make(chan int, asks)
	for i := 0; i < asks; i++ {
		work <- i
	}
	close(work)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				id := sessions[i%len(sessions)]
				q := fmt.Sprintf("What is the impact of incident %d on transatlantic capacity in region %d?", i, i%7)
				if _, err := tryPost(client, base+"/v1/sessions/"+id+"/ask", map[string]any{"question": q}); err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("throughput run against %s failed: %v", base, errs)
	}
	return float64(asks) / time.Since(start).Seconds()
}

func durationP50(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// gatewayThroughputRun is one scale point in BENCH_gateway.json.
type gatewayThroughputRun struct {
	Backends   int     `json:"backends"`
	Via        string  `json:"via"` // direct | gateway
	Sessions   int     `json:"sessions"`
	Asks       int     `json:"asks"`
	AsksPerSec float64 `json:"asks_per_sec"`
}

// gatewayReport is the JSON shape of BENCH_gateway.json.
type gatewayReport struct {
	Suite string `json:"suite"`
	// Hop overhead: p50 of a sim-model ask direct vs through the
	// gateway on warm keep-alive loopback connections.
	DirectAskP50Us  float64 `json:"direct_ask_p50_us"`
	ProxiedAskP50Us float64 `json:"proxied_ask_p50_us"`
	HopOverheadUs   float64 `json:"hop_overhead_p50_us"`
	// Throughput workload parameters: the per-node admission gate and
	// the injected completion latency that make each backend
	// latency-bound (ceiling = gate/latency per node).
	MaxInFlight  int     `json:"max_inflight"`
	LLMLatencyMs float64 `json:"llm_latency_ms"`

	Runs []gatewayThroughputRun `json:"runs"`
	// ScaleoutX is gateway-at-4-backends vs one direct backend.
	ScaleoutX float64 `json:"scaleout_x"`
}

// TestGatewayReport measures the gateway tier: the proxy hop's p50 on
// loopback, and the ask throughput of one, two and four gated backends
// behind the gateway against one direct backend.
func TestGatewayReport(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping gateway measurement in -short mode")
	}
	if raceEnabled {
		t.Skip("latency measurements are meaningless under race instrumentation")
	}
	websimd, llmstub := buildGatewayBinaries(t)
	client := &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	report := gatewayReport{Suite: "gateway", MaxInFlight: 4, LLMLatencyMs: 40}

	// --- Hop overhead: one sim backend, a gateway in front, sequential
	// asks on the same trained session over both paths.
	// Each address is reserved only once the previous server is up, so
	// a released port cannot be handed out twice.
	hopBackend := reserveAddr(t)
	startProc(t, nil, websimd, "-addr", hopBackend)
	waitUp(t, hopBackend)
	hopGateway := reserveAddr(t)
	startProc(t, nil, websimd, "-gateway", "-backends", hopBackend, "-addr", hopGateway)
	waitUp(t, hopGateway)
	benchPost(t, client, "http://"+hopBackend+"/v1/sessions", map[string]any{"id": "hop", "train": true})
	measureAskP50 := func(base string) time.Duration {
		const n = 400
		samples := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			benchPost(t, client, base+"/v1/sessions/hop/ask", map[string]any{"question": gatewayBenchQuestion})
			samples = append(samples, time.Since(t0))
		}
		// The first fifth warms connections and code paths.
		return durationP50(samples[n/5:])
	}
	direct := measureAskP50("http://" + hopBackend)
	proxied := measureAskP50("http://" + hopGateway)
	report.DirectAskP50Us = float64(direct.Nanoseconds()) / 1e3
	report.ProxiedAskP50Us = float64(proxied.Nanoseconds()) / 1e3
	report.HopOverheadUs = report.ProxiedAskP50Us - report.DirectAskP50Us
	t.Logf("ask p50: direct %v, proxied %v, hop overhead %.0fus", direct, proxied, report.HopOverheadUs)

	// --- Scale-out throughput: remote-model backends against llmstub
	// with injected latency, 4 sessions per backend, a shared pool of
	// parallel askers.
	const (
		perBackend  = 4
		clients     = 32
		asksPerSess = 16
	)
	llmAddr := reserveAddr(t)
	startProc(t, nil, llmstub, "-addr", llmAddr, "-latency", "40ms")
	waitUp(t, llmAddr)
	env := []string{"REPRO_LLM_ENDPOINT=http://" + llmAddr}

	// Baseline: one backend, no gateway.
	directAddr := reserveAddr(t)
	startProc(t, env, websimd, "-addr", directAddr, "-model", "remote", "-max-inflight", "4")
	waitUp(t, directAddr)
	directBase := "http://" + directAddr
	var sessions []string
	for i := 0; i < perBackend; i++ {
		sessions = append(sessions, fmt.Sprintf("bench-d%02d", i))
	}
	for _, id := range sessions {
		benchPost(t, client, directBase+"/v1/sessions", map[string]any{"id": id})
	}
	baseline := measureAskThroughput(t, client, directBase, sessions, perBackend*asksPerSess, clients)
	report.Runs = append(report.Runs, gatewayThroughputRun{
		Backends: 1, Via: "direct", Sessions: len(sessions),
		Asks: perBackend * asksPerSess, AsksPerSec: baseline,
	})
	t.Logf("direct 1 backend: %.0f asks/s", baseline)

	// Gateway at 1, 2 and 4 spawned backends.
	var quad float64
	for _, n := range []int{1, 2, 4} {
		addr := reserveAddr(t)
		startProc(t, env, websimd, "-gateway", "-spawn", fmt.Sprint(n), "-addr", addr,
			"-model", "remote", "-max-inflight", "4")
		waitUp(t, addr)
		base := "http://" + addr
		backends := gatewayBackends(t, client, base)
		if len(backends) != n {
			t.Fatalf("gateway at %s reports %d backends, want %d", addr, len(backends), n)
		}
		ids := balancedSessionIDs(backends, perBackend)
		for _, id := range ids {
			benchPost(t, client, base+"/v1/sessions", map[string]any{"id": id})
		}
		thr := measureAskThroughput(t, client, base, ids, len(ids)*asksPerSess, clients)
		report.Runs = append(report.Runs, gatewayThroughputRun{
			Backends: n, Via: "gateway", Sessions: len(ids),
			Asks: len(ids) * asksPerSess, AsksPerSec: thr,
		})
		t.Logf("gateway %d backends: %.0f asks/s", n, thr)
		if n == 4 {
			quad = thr
		}
	}

	report.ScaleoutX = quad / baseline

	if out := os.Getenv("REPRO_GATEWAY_OUT"); out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}
	t.Logf("hop_overhead=%.0fus scaleout=%.2fx", report.HopOverheadUs, report.ScaleoutX)
}
