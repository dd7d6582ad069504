package session

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHTTPMetricsEndpoint pins the Prometheus scrape contract: route
// latency histograms for exercised routes, the cache hit-ratio gauges,
// and the flattened stats gauges (sessions, backend, incidents ride
// the same flattener).
func TestHTTPMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})

	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "mx", Train: true}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions/mx/ask", QuestionRequest{Question: vulnQuestion}); code != http.StatusOK {
		t.Fatalf("ask: %d %s", code, body)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		"# TYPE repro_http_request_seconds histogram",
		`repro_http_request_seconds_bucket{route="POST /v1/sessions/{id}/ask"`,
		`repro_http_request_seconds_count{route="POST /v1/sessions"`,
		"# TYPE repro_cache_hit_ratio gauge",
		`repro_cache_hit_ratio{cache="evidence"}`,
		`repro_cache_hit_ratio{cache="knowledge"}`,
		"repro_stats_sessions_live 1",
		"repro_stats_backend_requests",
		"repro_stats_caches_evidence_hits",
		"repro_stats_retrieval_searches",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestHTTPDrainHandoff pins the migration handoff: drain persists the
// session and closes it, a later request transparently restores it
// from the shared snapshot directory (here: the same manager; the
// gateway test does it across two managers), and draining through a
// manager with no snapshot directory refuses with 409.
func TestHTTPDrainHandoff(t *testing.T) {
	dir := t.TempDir()
	srv, m := newTestServer(t, ManagerConfig{SnapshotDir: dir})

	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "mig", Train: true}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions/mig/drain", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"drained":"mig"`) {
		t.Fatalf("drain: %d %s", code, body)
	}
	m.Flush()
	if m.Len() != 0 {
		t.Fatalf("drained session still live: %d", m.Len())
	}
	// The drained session restores transparently — trained state intact.
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions/mig", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"trained":true`) {
		t.Fatalf("restore after drain: %d %s", code, body)
	}

	// Draining an unknown ID is 404; with no snapshot dir it is 409.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions/ghost/drain", nil); code != http.StatusNotFound {
		t.Errorf("drain ghost = %d, want 404", code)
	}
	srv2, _ := newTestServer(t, ManagerConfig{})
	if code, body := doJSON(t, "POST", srv2.URL+"/v1/sessions", CreateRequest{ID: "nodrain"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, body = doJSON(t, "POST", srv2.URL+"/v1/sessions/nodrain/drain", nil)
	if code != http.StatusConflict || !strings.Contains(string(body), `"code":"conflict"`) {
		t.Errorf("drain without snapshots = %d %s, want 409 conflict", code, body)
	}
}

// TestHTTPDeleteDrainedSession: DELETE of a session that exists only as
// its snapshot file removes the file and answers 200, as API.md
// promises; a second DELETE finds nothing and answers 404.
func TestHTTPDeleteDrainedSession(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTestServer(t, ManagerConfig{SnapshotDir: dir})
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "gone"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions/gone/drain", nil); code != http.StatusOK {
		t.Fatalf("drain: %d %s", code, body)
	}
	path := filepath.Join(dir, "gone.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("drained snapshot: %v", err)
	}
	if code, body := doJSON(t, "DELETE", srv.URL+"/v1/sessions/gone", nil); code != http.StatusOK {
		t.Errorf("DELETE of a drained session = %d %s, want 200", code, body)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("snapshot after DELETE: %v, want it removed", err)
	}
	if code, body := doJSON(t, "DELETE", srv.URL+"/v1/sessions/gone", nil); code != http.StatusNotFound {
		t.Errorf("second DELETE = %d %s, want 404", code, body)
	}
}

// TestAdmissionGate pins the per-node admission gate: at MaxInFlight=1
// a second concurrent operation waits for the slot, and a caller whose
// context expires while queued gets the context error instead of a
// slot.
func TestAdmissionGate(t *testing.T) {
	m := NewManager(ManagerConfig{MaxInFlight: 1})
	ctx := context.Background()

	rel1, err := m.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.InFlight != 1 || st.MaxInFlight != 1 {
		t.Fatalf("stats with held slot: %+v", st)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := m.Admit(short); err == nil {
		t.Fatal("second admit succeeded past the gate")
	}
	rel1()
	rel2, err := m.Admit(ctx)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel2()
	if st := m.Stats(); st.InFlight != 0 {
		t.Fatalf("inflight after release: %+v", st)
	}
	// Unlimited managers no-op.
	un := NewManager(ManagerConfig{})
	rel, err := un.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rel()
}
