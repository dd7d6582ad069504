package session

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/agent"
)

// TestHTTPV1Routes drives the session lifecycle purely through the
// versioned /v1 prefix, proving the stable contract stands on its own.
func TestHTTPV1Routes(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{SnapshotDir: t.TempDir()})

	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "v1", Train: true})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	if created := decode[CreateResponse](t, body); !created.Trained {
		t.Fatalf("create response %+v", created)
	}
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"v1"`) {
		t.Errorf("list: %d %s", code, body)
	}
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions/v1", nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/v1/ask", QuestionRequest{Question: vulnQuestion})
	if code != http.StatusOK {
		t.Fatalf("ask: %d %s", code, body)
	}
	if ans := decode[agent.Answer](t, body); ans.Text == "" {
		t.Errorf("ask answer %+v", ans)
	}
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/v1/plan", PlanRequest{Scenario: "solar storm response"})
	if code != http.StatusOK {
		t.Fatalf("plan: %d %s", code, body)
	}
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/v1/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions/v1/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("trace: %d %s", code, body)
	}
	code, body = doJSON(t, "DELETE", srv.URL+"/v1/sessions/v1", nil)
	if code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, _ = doJSON(t, "GET", srv.URL+"/v1/sessions/v1", nil); code != http.StatusNotFound {
		t.Errorf("status after delete = %d, want 404", code)
	}
}

// TestHTTPUnversionedGone pins the removal of the deprecated unversioned
// aliases: every pre-/v1 path now answers 404 with the standard error
// envelope, and nothing leaks through to a live handler.
func TestHTTPUnversionedGone(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})

	// A real session exists, so a surviving alias would answer 200.
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "legacy"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	gone := []struct{ method, path string }{
		{"POST", "/sessions"},
		{"GET", "/sessions"},
		{"GET", "/sessions/legacy"},
		{"DELETE", "/sessions/legacy"},
		{"POST", "/sessions/legacy/ask"},
		{"POST", "/sessions/legacy/train"},
		{"POST", "/sessions/legacy/learn"},
		{"GET", "/sessions/legacy/trace"},
		{"GET", "/stats"},
	}
	for _, g := range gone {
		code, body := doJSON(t, g.method, srv.URL+g.path, nil)
		if code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", g.method, g.path, code)
			continue
		}
		resp := decode[ErrorResponse](t, body)
		if resp.Error.Code != "not_found" || resp.Error.Message == "" {
			t.Errorf("%s %s envelope = %s", g.method, g.path, body)
		}
	}

	// The removed aliases had no side effects: the session is untouched.
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/sessions/legacy", nil); code != http.StatusOK {
		t.Errorf("session harmed by alias probes: %d", code)
	}
}

// TestHTTPErrorEnvelope asserts every failure mode returns the
// standardized {"error":{"code":...,"message":...}} envelope with its
// stable code.
func TestHTTPErrorEnvelope(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})

	envelope := func(code int, body []byte) ErrorInfo {
		t.Helper()
		resp := decode[ErrorResponse](t, body)
		if resp.Error.Code == "" || resp.Error.Message == "" {
			t.Fatalf("response %d is not an error envelope: %s", code, body)
		}
		return resp.Error
	}

	// Unknown session: 404 not_found.
	code, body := doJSON(t, "GET", srv.URL+"/v1/sessions/ghost", nil)
	if code != http.StatusNotFound || envelope(code, body).Code != "not_found" {
		t.Errorf("unknown session: %d %s", code, body)
	}

	// Unknown model: 400 unknown_model, and nothing is created.
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "m", Model: "gpt-17"})
	if code != http.StatusBadRequest || envelope(code, body).Code != "unknown_model" {
		t.Errorf("unknown model: %d %s", code, body)
	}
	if code, _ := doJSON(t, "GET", srv.URL+"/v1/sessions/m", nil); code != http.StatusNotFound {
		t.Errorf("session created despite unknown model: %d", code)
	}

	// Duplicate create: 409 conflict.
	if code, _ := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "dup"}); code != http.StatusCreated {
		t.Fatal("create dup failed")
	}
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "dup"})
	if code != http.StatusConflict || envelope(code, body).Code != "conflict" {
		t.Errorf("duplicate create: %d %s", code, body)
	}

	// Body validation failures: 400 bad_request.
	code, body = doJSON(t, "POST", srv.URL+"/v1/sessions/dup/ask", QuestionRequest{})
	if code != http.StatusBadRequest || envelope(code, body).Code != "bad_request" {
		t.Errorf("empty question: %d %s", code, body)
	}
	resp, err := http.Post(srv.URL+"/v1/sessions/dup/ask", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("bad-json response not an envelope: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || er.Error.Code != "bad_request" {
		t.Errorf("bad json: %d %+v", resp.StatusCode, er)
	}

	// The envelope is exactly {"error":{...}} — no stray top-level keys.
	var top map[string]json.RawMessage
	_, body = doJSON(t, "GET", srv.URL+"/v1/sessions/ghost", nil)
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 {
		t.Errorf("envelope has extra top-level keys: %s", body)
	}
	if _, ok := top["error"]; !ok {
		t.Errorf("envelope missing error key: %s", body)
	}
}

// TestHTTPCreateLimits: a create whose threshold lies outside the 0-10
// confidence scale, or whose max_rounds lies outside 0 to
// maxRoundsLimit, is answered 400 bad_request and creates nothing; the
// limits themselves are accepted.
func TestHTTPCreateLimits(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})
	for _, c := range []struct {
		req  CreateRequest
		want int
	}{
		{CreateRequest{ID: "t11", Threshold: 11}, http.StatusBadRequest},
		{CreateRequest{ID: "tneg", Threshold: -1}, http.StatusBadRequest},
		{CreateRequest{ID: "r17", MaxRounds: 17}, http.StatusBadRequest},
		{CreateRequest{ID: "rneg", MaxRounds: -1}, http.StatusBadRequest},
		{CreateRequest{ID: "t10", Threshold: 10}, http.StatusCreated},
		{CreateRequest{ID: "r16", MaxRounds: 16}, http.StatusCreated},
	} {
		code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", c.req)
		if code != c.want {
			t.Errorf("create %+v: %d %s, want %d", c.req, code, body, c.want)
		}
		if code == http.StatusBadRequest {
			if e := decode[ErrorResponse](t, body).Error; e.Code != "bad_request" || e.Message == "" {
				t.Errorf("create %+v: envelope %s, want code bad_request", c.req, body)
			}
		}
		if got, _ := doJSON(t, "GET", srv.URL+"/v1/sessions/"+c.req.ID, nil); (got == http.StatusOK) != (c.want == http.StatusCreated) {
			t.Errorf("create %+v answered %d, but the session lookup answers %d", c.req, code, got)
		}
	}
}

// TestHTTPStats exercises GET /v1/stats: the namespaced top-level
// blocks documented in API.md, with the manager lifecycle counters
// under "sessions" and the LLM counters under "backend".
func TestHTTPStats(t *testing.T) {
	srv, m := newTestServer(t, ManagerConfig{})
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "a"}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	code, body := doJSON(t, "GET", srv.URL+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, block := range []string{"sessions", "backend", "caches", "memory_segments", "retrieval"} {
		if _, ok := raw[block]; !ok {
			t.Errorf("stats JSON missing block %q: %s", block, body)
		}
	}

	var sess ManagerStats
	if err := json.Unmarshal(raw["sessions"], &sess); err != nil {
		t.Fatal(err)
	}
	if sess.Live != 1 {
		t.Errorf("sessions.live = %d, want 1", sess.Live)
	}
	if want := m.Stats().Live; sess.Live != want {
		t.Errorf("served live = %d, manager reports %d", sess.Live, want)
	}

	var caches map[string]json.RawMessage
	if err := json.Unmarshal(raw["caches"], &caches); err != nil {
		t.Fatal(err)
	}
	for _, block := range []string{"evidence", "knowledge"} {
		var cc map[string]json.RawMessage
		if err := json.Unmarshal(caches[block], &cc); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"hits", "misses"} {
			if _, ok := cc[key]; !ok {
				t.Errorf("caches.%s missing %q: %s", block, key, caches[block])
			}
		}
	}
	var be map[string]json.RawMessage
	if err := json.Unmarshal(raw["backend"], &be); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "retries", "failures", "breaker_opens", "cache_hits", "fallback_completions"} {
		if _, ok := be[key]; !ok {
			t.Errorf("backend stats missing %q: %s", key, raw["backend"])
		}
	}

	// The removed unversioned alias is gone for good.
	if code, aliasBody := doJSON(t, "GET", srv.URL+"/stats", nil); code != http.StatusNotFound {
		t.Errorf("legacy /stats = %d %s, want 404", code, aliasBody)
	}
}

// TestHTTPListEnvelope pins the shared paginated list contract on GET
// /v1/sessions: the {"items":[...],"next":...} envelope, deterministic
// ascending-ID ordering, ?limit= windows and the ?after= cursor.
func TestHTTPListEnvelope(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{})
	for _, id := range []string{"c", "a", "b"} {
		if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: id}); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
	}

	ids := func(p ListPage[Status]) []string {
		out := make([]string, len(p.Items))
		for i, s := range p.Items {
			out[i] = s.ID
		}
		return out
	}

	code, body := doJSON(t, "GET", srv.URL+"/v1/sessions", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	page := decode[ListPage[Status]](t, body)
	if got := ids(page); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("full list order = %v, want [a b c]", got)
	}
	if page.Next != "" {
		t.Errorf("full list next = %q, want empty", page.Next)
	}

	// Page 1 of 2: the cursor points at the last item served.
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions?limit=2", nil)
	if code != http.StatusOK {
		t.Fatalf("limit=2: %d %s", code, body)
	}
	page = decode[ListPage[Status]](t, body)
	if got := ids(page); len(got) != 2 || got[0] != "a" || got[1] != "b" || page.Next != "b" {
		t.Errorf("page 1 = %v next=%q, want [a b] next=b", got, page.Next)
	}

	// Page 2: resume after the cursor, no further pages.
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions?limit=2&after="+page.Next, nil)
	if code != http.StatusOK {
		t.Fatalf("after: %d %s", code, body)
	}
	page = decode[ListPage[Status]](t, body)
	if got := ids(page); len(got) != 1 || got[0] != "c" || page.Next != "" {
		t.Errorf("page 2 = %v next=%q, want [c] next=\"\"", got, page.Next)
	}

	// A malformed limit is a bad_request envelope.
	code, body = doJSON(t, "GET", srv.URL+"/v1/sessions?limit=zero", nil)
	if code != http.StatusBadRequest || decode[ErrorResponse](t, body).Error.Code != "bad_request" {
		t.Errorf("bad limit: %d %s", code, body)
	}
}

// TestHTTPCreateWithModel picks a backend per session through the API.
func TestHTTPCreateWithModel(t *testing.T) {
	srv, m := newTestServer(t, ManagerConfig{})
	code, body := doJSON(t, "POST", srv.URL+"/v1/sessions", CreateRequest{ID: "ens", Model: "ensemble"})
	if code != http.StatusCreated {
		t.Fatalf("create with model: %d %s", code, body)
	}
	s, err := m.Get("ens")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().Model; got != "ensemble" {
		t.Errorf("session model = %q, want ensemble", got)
	}
	// The ensemble-backed session still answers.
	if code, body := doJSON(t, "POST", srv.URL+"/v1/sessions/ens/ask", QuestionRequest{Question: vulnQuestion}); code != http.StatusOK {
		t.Errorf("ensemble ask: %d %s", code, body)
	}
}
