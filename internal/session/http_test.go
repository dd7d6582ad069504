package session

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/evalcache"
	"repro/internal/stream"
	"repro/internal/websim"
)

// newTestServer builds the same composite handler websimd serves: the
// agent session API mounted next to the simulated-web API.
func newTestServer(t *testing.T, cfg ManagerConfig) (*httptest.Server, *Manager) {
	t.Helper()
	if cfg.Defaults.Seed == 0 {
		cfg.Defaults.Seed = 42
	}
	m := NewManager(cfg)
	t.Cleanup(m.Shutdown)
	agents := Handler(m)
	mux := http.NewServeMux()
	mux.Handle("/v1/", agents)
	mux.Handle("/sessions", agents)
	mux.Handle("/sessions/", agents)
	mux.Handle("/stats", agents)
	mux.Handle("/", websim.Handler(evalcache.Engine(cfg.Defaults.Seed, cfg.Defaults.WebOptions)))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, m
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %T from %s: %v", v, data, err)
	}
	return v
}

// TestHTTPSessionLifecycle walks the full websimd session lifecycle over
// real HTTP: create+train, ask, learn, plan, report, trace, snapshot,
// restore into a fresh manager, and delete.
func TestHTTPSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTestServer(t, ManagerConfig{SnapshotDir: dir})

	// Create and train in one call.
	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "ops", Train: true})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	created := decode[CreateResponse](t, body)
	if !created.Trained || created.MemoryItems == 0 || created.Train == nil {
		t.Fatalf("create response %+v", created)
	}

	// Status and listing see it.
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions/ops", nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	if st := decode[Status](t, body); st.ID != "ops" || !st.Trained {
		t.Errorf("status %+v", st)
	}
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"ops"`) {
		t.Errorf("list: %d %s", code, body)
	}

	// Ask from knowledge.
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/ops/ask", QuestionRequest{Question: vulnQuestion})
	if code != http.StatusOK {
		t.Fatalf("ask: %d %s", code, body)
	}
	firstAsk := decode[agent.Answer](t, body)
	if firstAsk.Text == "" || firstAsk.Confidence == 0 {
		t.Errorf("ask answer %+v", firstAsk)
	}

	// Self-learning investigation.
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/ops/learn", QuestionRequest{Question: vulnQuestion})
	if code != http.StatusOK {
		t.Fatalf("learn: %d %s", code, body)
	}
	if inv := decode[agent.Investigation](t, body); inv.Final.Text == "" {
		t.Errorf("learn investigation %+v", inv)
	}

	// Plan and report.
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/ops/plan", PlanRequest{Scenario: "solar storm response"})
	if code != http.StatusOK {
		t.Fatalf("plan: %d %s", code, body)
	}
	if plan := decode[PlanResponse](t, body); len(plan.Items) == 0 {
		t.Error("plan returned no items")
	}
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/ops/report", QuestionRequest{Question: vulnQuestion})
	if code != http.StatusOK {
		t.Fatalf("report: %d %s", code, body)
	}
	if rep := decode[ReportResponse](t, body); !strings.Contains(rep.Markdown, "# Investigation report:") {
		t.Errorf("report markdown missing header: %q", rep.Markdown)
	}

	// The audit trace is the session's event log: it ends with the
	// report's terminal answer, at the ID the status counts.
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions/ops/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("trace: %d %s", code, body)
	}
	tr := decode[TraceResponse](t, body)
	if len(tr.Events) == 0 {
		t.Fatal("trace empty after lifecycle")
	}
	_, body = doJSON(t, "GET", srv.URL+"/v1/sessions/ops", nil)
	if last, st := tr.Events[len(tr.Events)-1], decode[Status](t, body); last.Type != stream.EventAnswer || last.ID != st.TraceEvents {
		t.Errorf("trace ends with %+v, status counts %d events", last, st.TraceEvents)
	}

	// Snapshot, then restore into a fresh manager (a new daemon run).
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/ops/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	if p := decode[SnapshotResponse](t, body).Path; p == "" {
		t.Fatal("snapshot returned no path")
	}
	srv2, _ := newTestServer(t, ManagerConfig{SnapshotDir: dir})
	code, body = doJSON(t, "GET", srv2.URL+"/v1/sessions/ops", nil)
	if code != http.StatusOK {
		t.Fatalf("restored status: %d %s", code, body)
	}
	restored := decode[Status](t, body)
	if !restored.Trained || restored.MemoryItems == 0 {
		t.Errorf("restored status %+v", restored)
	}
	// The restored session must answer exactly as the live one does.
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/ops/ask", QuestionRequest{Question: vulnQuestion})
	if code != http.StatusOK {
		t.Fatalf("live re-ask: %d %s", code, body)
	}
	liveAsk := decode[agent.Answer](t, body)
	code, body = doJSON(t, "POST", srv2.URL+"/v1/sessions/ops/ask", QuestionRequest{Question: vulnQuestion})
	if code != http.StatusOK {
		t.Fatalf("restored ask: %d %s", code, body)
	}
	if restoredAsk := decode[agent.Answer](t, body); !reflect.DeepEqual(restoredAsk, liveAsk) {
		t.Errorf("restored answer diverged:\n got %+v\nwant %+v", restoredAsk, liveAsk)
	}

	// Delete discards the session and its on-disk snapshot.
	code, body = doJSON(t, "DELETE", srv2.URL+"/v1/sessions/ops", nil)
	if code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, _ = doJSON(t, "GET", srv2.URL+"/v1/sessions/ops", nil); code != http.StatusNotFound {
		t.Errorf("status after delete = %d, want 404", code)
	}

	// The simulated-web API still serves next to the agent API.
	resp, err := http.Get(srv.URL + "/search?q=solar+superstorm&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("websim /search = %d", resp.StatusCode)
	}
}

// TestHTTPConcurrentAsks fires concurrent asks from multiple goroutines
// at one session; under -race this is the proof that per-session
// serialization holds over HTTP.
func TestHTTPConcurrentAsks(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})
	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "shared", Train: true})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	const n = 8
	answers := make([]agent.Answer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := doJSON(t, "POST", srv.URL+"/v1/sessions/shared/ask", QuestionRequest{Question: vulnQuestion})
			if code != http.StatusOK {
				t.Errorf("ask %d: %d %s", i, code, body)
				return
			}
			answers[i] = decode[agent.Answer](t, body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(answers[i], answers[0]) {
			t.Errorf("ask %d diverged: %+v vs %+v", i, answers[i], answers[0])
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})
	// Unknown session.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions/ghost/ask", QuestionRequest{Question: "q"}); code != http.StatusNotFound {
		t.Errorf("unknown ask = %d, want 404", code)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/sessions/ghost", nil); code != http.StatusNotFound {
		t.Errorf("unknown status = %d, want 404", code)
	}
	if code, _ := doJSON(t, "DELETE", srv.URL+"/v1/sessions/ghost", nil); code != http.StatusNotFound {
		t.Errorf("unknown delete = %d, want 404", code)
	}
	// Duplicate create.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "dup"}); code != http.StatusCreated {
		t.Fatal("create dup failed")
	}
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "dup"}); code != http.StatusConflict {
		t.Error("duplicate create not 409")
	}
	// Missing question and malformed body.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions/dup/ask", QuestionRequest{}); code != http.StatusBadRequest {
		t.Error("empty question not 400")
	}
	resp, err := http.Post(srv.URL+"/v1/sessions/dup/ask", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json = %d, want 400", resp.StatusCode)
	}
	// Invalid session IDs are rejected and nothing is created.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "bad/id"}); code < 400 {
		t.Errorf("invalid id accepted: %d", code)
	}
	// Snapshot without a snapshot dir is a server-side failure.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions/dup/snapshot", nil); code != http.StatusInternalServerError {
		t.Error("snapshot without dir not 500")
	}
}

// TestHTTPBusyTimeout holds a session's operation lock and checks that a
// queued request gives up with 504 when the per-request timeout fires.
func TestHTTPBusyTimeout(t *testing.T) {
	srv, m := newTestServer(t, ManagerConfig{RequestTimeout: 30 * time.Millisecond})
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "slow"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	s, err := m.Get("slow")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.release()
	if st := s.Status(); !st.Busy {
		t.Error("session not reported busy while lock held")
	}
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions/slow/ask", QuestionRequest{Question: "q"}); code != http.StatusGatewayTimeout {
		t.Errorf("busy session = %d %s, want 504", code, body)
	}
}

// TestHTTPSessionClosedBetweenGetAndOp pins the window between a
// handler's Manager.Get and its op lock. A session evicted there (by
// another request's restore) is restored and the op retried; one
// deleted there answers 404, not 409.
func TestHTTPSessionClosedBetweenGetAndOp(t *testing.T) {
	cases := []struct {
		name     string
		closeFn  func(m *Manager) error
		wantCode int
	}{
		{"evicted", func(m *Manager) error {
			_, err := m.Create("other", Config{Seed: 42}) // capacity 1: evicts "a"
			return err
		}, http.StatusOK},
		{"deleted", func(m *Manager) error {
			return m.Close(context.Background(), "a", true)
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestManager(t, ManagerConfig{Capacity: 1, SnapshotDir: t.TempDir(), Defaults: Config{Seed: 42}})
			if _, err := m.Create("a", Config{Seed: 42}); err != nil {
				t.Fatal(err)
			}
			r := httptest.NewRequest("POST", "/v1/sessions/a/ask", nil)
			r.SetPathValue("id", "a")
			w := httptest.NewRecorder()
			calls := 0
			withSession(m, w, r, func(ctx context.Context, s *Session) (any, error) {
				if calls++; calls == 1 {
					if err := tc.closeFn(m); err != nil {
						t.Fatal(err)
					}
				}
				return s.Ask(ctx, vulnQuestion)
			})
			if w.Code != tc.wantCode {
				t.Errorf("status = %d %s, want %d", w.Code, w.Body, tc.wantCode)
			}
		})
	}
}

func TestHTTPCreateOptions(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})
	seed := uint64(7)
	social := true
	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{
		ID:        "ada",
		Seed:      &seed,
		Social:    &social,
		Threshold: 9,
		MaxRounds: 2,
		Incident:  "2021 Facebook outage",
	})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	st := decode[CreateResponse](t, body)
	if st.Seed != 7 {
		t.Errorf("seed = %d, want 7", st.Seed)
	}
	if st.Role == "" || st.Role == "Bob" {
		t.Errorf("incident role not applied: %q", st.Role)
	}
	// Generated IDs are sequential.
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{})
	if code != http.StatusCreated {
		t.Fatalf("create generated: %d %s", code, body)
	}
	if st := decode[CreateResponse](t, body); st.ID != "s0001" {
		t.Errorf("generated id = %q", st.ID)
	}
}
