// Gateway-tier report: the shipped websimd binary, run as a gateway
// that spawns 1, 2 and 4 backend processes, must list every backend on
// its ring and place sessions where the ring says. Latency and
// throughput of the gateway path are measured by the ask-hot workload
// under bench/ (gateway.hop_self_p50_us and the end-to-end metrics);
// this test checks only counts, so it holds on any machine and under
// the race detector.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/session"
)

// buildWebsimd compiles websimd into a temp dir for the report run.
func buildWebsimd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "websimd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/websimd").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/websimd: %v\n%s", err, out)
	}
	return bin
}

// startProc launches a server process and terminates it at test end.
// Termination starts with SIGTERM so a gateway parent runs its signal
// handler and reaps its -spawn children; a straight SIGKILL would
// orphan them and leave stray listeners for the next run.
func startProc(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
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

// getJSON decodes a 200 reply of GET url into v.
func getJSON(t *testing.T, client *http.Client, url string, v any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// balancedSessionIDs picks session IDs that hash evenly: perBackend of
// them landing on every ring member.
func balancedSessionIDs(addrs []string, perBackend int) []string {
	ring := gateway.NewRing(addrs, 0)
	need := map[string]int{}
	for _, a := range addrs {
		need[a] = perBackend
	}
	var ids []string
	for i := 0; len(ids) < perBackend*len(addrs); i++ {
		id := fmt.Sprintf("report-s%05d", i)
		if owner := ring.Owner(id); need[owner] > 0 {
			need[owner]--
			ids = append(ids, id)
		}
	}
	return ids
}

// TestGatewayReport runs websimd -gateway -spawn N for N in 1, 2 and 4
// (sim model), one at a time. The gateway must list N backends, and
// after it creates four ring-balanced sessions per backend, its merged
// /v1/stats must show four live sessions on every node.
func TestGatewayReport(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping gateway report in -short mode")
	}
	websimd := buildWebsimd(t)
	client := &http.Client{Timeout: 60 * time.Second}
	const perBackend = 4
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("spawn%d", n), func(t *testing.T) {
			addr := reserveAddr(t)
			startProc(t, websimd, "-gateway", "-spawn", fmt.Sprint(n), "-addr", addr,
				"-snapshots", t.TempDir())
			waitUp(t, addr)
			base := "http://" + addr

			var ring struct {
				Backends []string `json:"backends"`
			}
			getJSON(t, client, base+"/v1/gateway", &ring)
			if len(ring.Backends) != n {
				t.Fatalf("gateway lists %d backends, want %d: %v", len(ring.Backends), n, ring.Backends)
			}

			for _, id := range balancedSessionIDs(ring.Backends, perBackend) {
				body, _ := json.Marshal(session.CreateRequest{ID: id})
				resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("create %s: %d %s", id, resp.StatusCode, out)
				}
			}

			var stats struct {
				Nodes map[string]struct {
					Sessions session.SessionsStats `json:"sessions"`
				} `json:"nodes"`
			}
			getJSON(t, client, base+"/v1/stats", &stats)
			if len(stats.Nodes) != n {
				t.Errorf("merged stats cover %d nodes, want %d", len(stats.Nodes), n)
			}
			for _, b := range ring.Backends {
				if got := stats.Nodes[b].Sessions.Live; got != perBackend {
					t.Errorf("node %s has %d live sessions, want %d", b, got, perBackend)
				}
			}
		})
	}
}
