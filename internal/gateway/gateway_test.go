package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/incident"
	"repro/internal/session"
)

const vulnQuestion = "Which is more vulnerable to solar activity? The fiber optic cable that connects Brazil to Europe or the one that connects the US to Europe?"

// newBackend starts one in-process backend: the session API (with the
// incident extension mounted, processor-less) plus /healthz, exactly
// the shape websimd serves.
func newBackend(t *testing.T, snapDir string) (string, *session.Manager) {
	t.Helper()
	return newBackendCfg(t, session.ManagerConfig{SnapshotDir: snapDir})
}

func newBackendCfg(t *testing.T, cfg session.ManagerConfig) (string, *session.Manager) {
	t.Helper()
	cfg.Defaults.Seed = 42
	m := session.NewManager(cfg)
	t.Cleanup(m.Shutdown)
	store := incident.NewStore(incident.StoreConfig{})
	mux := http.NewServeMux()
	mux.Handle("/v1/", session.Handler(m, &incident.API{Store: store}))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), m
}

// newGateway stands a gateway over the backends, served over real HTTP.
func newGateway(t *testing.T, backends ...string) (*httptest.Server, *Gateway) {
	t.Helper()
	gw := New(Config{Logf: t.Logf}, backends)
	t.Cleanup(gw.Close)
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	return srv, gw
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestGatewayRoutingAndFanout covers the proxy surface end to end:
// creation routes by (possibly gateway-assigned) session ID to the
// ring owner, per-session requests follow, collection listings fan out
// and merge, incidents route by their derived session key, and the
// merged /v1/stats and /v1/metrics views nest every backend.
func TestGatewayRoutingAndFanout(t *testing.T) {
	addrA, mA := newBackend(t, "")
	addrB, mB := newBackend(t, "")
	srv, gw := newGateway(t, addrA, addrB)
	ring := gw.ring.Load()

	// Sessions land on their ring owner, wherever that is.
	byAddr := map[string]*session.Manager{addrA: mA, addrB: mB}
	ids := []string{"alpha", "beta", "gamma", "delta"}
	for _, id := range ids {
		if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", map[string]any{"id": id}); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
		owner := ring.Owner(id)
		if _, err := byAddr[owner].Get(id); err != nil {
			t.Errorf("session %s not on its owner %s: %v", id, owner, err)
		}
	}
	if mA.Len()+mB.Len() != len(ids) {
		t.Errorf("sessions split %d+%d, want %d total", mA.Len(), mB.Len(), len(ids))
	}
	if mA.Len() == 0 || mB.Len() == 0 {
		t.Logf("warning: all sessions on one backend (legal but unbalanced): A=%d B=%d", mA.Len(), mB.Len())
	}

	// Omitted IDs get gateway-assigned ones, so routing stays keyed.
	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", map[string]any{})
	if code != http.StatusCreated || !strings.Contains(string(body), `"id":"g-s000001"`) {
		t.Fatalf("create without id: %d %s", code, body)
	}

	// Per-session operations reach the owner through the gateway.
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/alpha/ask", map[string]any{"question": vulnQuestion})
	if code != http.StatusOK || !strings.Contains(string(body), `"text"`) {
		t.Fatalf("ask through gateway: %d %s", code, body)
	}
	if code, body := doJSON(t, "GET", srv.URL+"/v1/sessions/alpha", nil); code != http.StatusOK || !strings.Contains(string(body), `"id":"alpha"`) {
		t.Fatalf("status through gateway: %d %s", code, body)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/sessions/nosuch", nil); code != http.StatusNotFound {
		t.Errorf("unknown session through gateway = %d, want 404", code)
	}

	// The fan-out listing merges both backends in ascending ID order.
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var page struct {
		Items []struct {
			ID string `json:"id"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 5 {
		t.Fatalf("merged list has %d items, want 5: %s", len(page.Items), body)
	}
	for i := 1; i < len(page.Items); i++ {
		if page.Items[i-1].ID >= page.Items[i].ID {
			t.Fatalf("merged list out of order: %s", body)
		}
	}

	// Incidents: the gateway pre-assigns collision-free IDs and routes
	// by the incident-<id> session key, so reads find them again.
	code, body = doJSON(t, "POST", srv.URL+"/v1/incidents", map[string]any{"type": "dns-failure"})
	if code != http.StatusCreated || !strings.Contains(string(body), `"id":"inc-g000001"`) {
		t.Fatalf("file incident: %d %s", code, body)
	}
	if code, body := doJSON(t, "GET", srv.URL+"/v1/incidents/inc-g000001", nil); code != http.StatusOK || !strings.Contains(string(body), `"dns-failure"`) {
		t.Fatalf("get incident through gateway: %d %s", code, body)
	}
	if code, body := doJSON(t, "GET", srv.URL+"/v1/incidents", nil); code != http.StatusOK || !strings.Contains(string(body), `"inc-g000001"`) {
		t.Fatalf("list incidents through gateway: %d %s", code, body)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/incidents/inc-missing", nil); code != http.StatusNotFound {
		t.Errorf("unknown incident through gateway = %d, want 404", code)
	}

	// Merged stats nest each backend under its address.
	code, body = doJSON(t, "GET", srv.URL+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var stats struct {
		Gateway Stats                      `json:"gateway"`
		Nodes   map[string]json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Nodes) != 2 || stats.Gateway.Proxied == 0 {
		t.Errorf("merged stats shape: %s", body)
	}
	for addr, raw := range stats.Nodes {
		if !strings.Contains(string(raw), `"sessions"`) {
			t.Errorf("node %s stats missing sessions block: %s", addr, raw)
		}
	}

	// Merged metrics: gateway-level families plus node-labeled backend
	// samples.
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	out := string(data)
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("metrics content type %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"repro_gateway_backends 2",
		"# TYPE repro_gateway_proxied_total counter",
		"# TYPE repro_gateway_proxy_errors_total counter",
		"# TYPE repro_gateway_migrations_total counter",
		"repro_gateway_proxied_total",
		"# TYPE repro_gateway_proxy_seconds histogram",
		fmt.Sprintf(`node="%s"`, addrA),
		fmt.Sprintf(`node="%s"`, addrB),
		"repro_http_request_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged metrics missing %q", want)
		}
	}

	// The envelope 404 covers unknown paths.
	if code, body := doJSON(t, "GET", srv.URL+"/v1/nope", nil); code != http.StatusNotFound || !strings.Contains(string(body), `"not_found"`) {
		t.Errorf("unknown path: %d %s", code, body)
	}
}

// TestGatewaySSEFlush is the streaming regression: a subscriber behind
// the gateway must see the first `round` event while the investigation
// is still running — i.e. the gateway flushes per event instead of
// buffering the stream until the backend finishes.
func TestGatewaySSEFlush(t *testing.T) {
	// Simulated per-request web latency stretches each self-learning
	// round to hundreds of milliseconds; without it the whole sim
	// investigation finishes in single-digit milliseconds and "arrived
	// before completion" is an unwinnable race, not a flush check.
	var cfg session.ManagerConfig
	cfg.Defaults.WebOptions.Latency = 150 * time.Millisecond
	addr, _ := newBackendCfg(t, cfg)
	srv, _ := newGateway(t, addr)

	// The top of the 0-10 confidence scale, which an untrained session
	// does not reach in its first round, forces more rounds, so real
	// work always remains after the first round event.
	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions",
		map[string]any{"id": "sse", "threshold": 10, "max_rounds": 3})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	resp, err := http.Get(srv.URL + "/v1/sessions/sse/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("events content type %q", ct)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		doJSON(t, "POST", srv.URL+"/v1/sessions/sse/learn", map[string]any{"question": vulnQuestion})
	}()

	sawRoundEarly := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	deadline := time.After(60 * time.Second)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
scan:
	for {
		select {
		case <-deadline:
			t.Fatal("timed out waiting for SSE events through the gateway")
		case line, ok := <-lines:
			if !ok {
				break scan
			}
			if line == "event: round" {
				select {
				case <-done:
					// The investigation already finished — the event
					// did not stream, it arrived with the backlog.
				default:
					sawRoundEarly = true
				}
			}
			if line == "event: answer" || line == "event: error" {
				break scan
			}
		}
	}
	<-done
	if !sawRoundEarly {
		t.Fatal("no round event arrived before the investigation completed — SSE is buffering at the gateway")
	}
}

// replayIDs reads a session's retained events once (GET .../events with
// ?once=1 and the given extra query or Last-Event-ID header) and returns
// their IDs in order.
func replayIDs(t *testing.T, url, lastEventID string) []int64 {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var ids []int64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			id, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", sc.Text())
			}
			ids = append(ids, id)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestGatewayMigration is the scale-out contract: remove the backend
// that owns a trained session and the same question answers
// byte-identically from its new owner, restored over the shared
// snapshot directory, with its event log and event IDs intact.
func TestGatewayMigration(t *testing.T) {
	snapDir := t.TempDir()
	addrA, mA := newBackend(t, snapDir)
	addrB, mB := newBackend(t, snapDir)
	srv, gw := newGateway(t, addrA, addrB)

	const id = "mig-target"
	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", map[string]any{"id": id, "train": true})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, first := doJSON(t, "POST", srv.URL+"/v1/sessions/"+id+"/ask", map[string]any{"question": vulnQuestion})
	if code != http.StatusOK {
		t.Fatalf("ask before migration: %d %s", code, first)
	}
	events := srv.URL + "/v1/sessions/" + id + "/events?once=1"
	logBefore := replayIDs(t, events+"&after=0", "")
	if len(logBefore) == 0 {
		t.Fatal("no events before migration")
	}
	lastBefore := logBefore[len(logBefore)-1]

	owner := gw.ring.Load().Owner(id)
	other := addrA
	otherM := mA
	if owner == addrA {
		other = addrB
		otherM = mB
	}

	// Graceful removal drains the owner's sessions, then reroutes.
	code, body = doJSON(t, "DELETE", srv.URL+"/v1/gateway/backends/"+owner, nil)
	if code != http.StatusOK {
		t.Fatalf("remove backend: %d %s", code, body)
	}
	if got := gw.ring.Load().Addrs(); len(got) != 1 || got[0] != other {
		t.Fatalf("ring after removal: %v, want [%s]", got, other)
	}
	if gw.Stats().Migrations == 0 {
		t.Error("no migrations counted for a graceful removal")
	}

	// The new owner replays the same log, and a resume token taken
	// before the move picks up right after it.
	if logAfter := replayIDs(t, events+"&after=0", ""); !slices.Equal(logAfter, logBefore) {
		t.Errorf("event log changed across migration:\nbefore %v\nafter  %v", logBefore, logAfter)
	}

	// The same question answers byte-identically from the new owner.
	code, second := doJSON(t, "POST", srv.URL+"/v1/sessions/"+id+"/ask", map[string]any{"question": vulnQuestion})
	if code != http.StatusOK {
		t.Fatalf("ask after migration: %d %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("answer changed across migration:\nbefore: %s\nafter:  %s", first, second)
	}
	if _, err := otherM.Get(id); err != nil {
		t.Errorf("session %s not live on surviving backend: %v", id, err)
	}
	if st, _ := otherM.Get(id); st != nil && !st.Status().Trained {
		t.Error("restored session lost its trained state")
	}
	if resumed := replayIDs(t, events, strconv.FormatInt(lastBefore, 10)); len(resumed) == 0 || resumed[0] != lastBefore+1 {
		t.Errorf("resume from %d after migration replayed %v, want IDs from %d", lastBefore, resumed, lastBefore+1)
	}

	// The removed backend is really gone from the admin view.
	code, body = doJSON(t, "GET", srv.URL+"/v1/gateway", nil)
	if code != http.StatusOK || strings.Contains(string(body), owner) {
		t.Errorf("gateway stats still list removed backend: %d %s", code, body)
	}

	// Adding it back migrates the moved slots again and restores
	// routing to the two-backend ring.
	code, body = doJSON(t, "POST", srv.URL+"/v1/gateway/backends", map[string]any{"addr": owner})
	if code != http.StatusOK {
		t.Fatalf("re-add backend: %d %s", code, body)
	}
	if got := gw.ring.Load().Len(); got != 2 {
		t.Fatalf("ring size after re-add: %d", got)
	}
	code, third := doJSON(t, "POST", srv.URL+"/v1/sessions/"+id+"/ask", map[string]any{"question": vulnQuestion})
	if code != http.StatusOK || !bytes.Equal(first, third) {
		t.Errorf("answer changed after re-add: %d\nbefore: %s\nafter:  %s", code, first, third)
	}
}
