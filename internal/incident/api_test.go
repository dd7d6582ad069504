package incident

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/session"
)

// newTestAPI mounts the incident extension on the session handler the
// way websimd does, over a fresh store and manager.
func newTestAPI(t *testing.T) (*httptest.Server, *Store, *Processor) {
	t.Helper()
	st := NewStore(StoreConfig{Clock: fixedClock()})
	mgr := newTestManager(t)
	proc := NewProcessor(st, mgr, ProcessorConfig{Workers: 2, Session: session.Config{Seed: 42}})
	srv := httptest.NewServer(session.Handler(mgr, &API{Store: st, Proc: proc}))
	t.Cleanup(srv.Close)
	return srv, st, proc
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

// TestAPILifecycle drives an incident over HTTP: file, list, fetch the
// record, drain through the processor, and read the resolved result.
func TestAPILifecycle(t *testing.T) {
	srv, _, proc := newTestAPI(t)

	code, body := doJSON(t, "POST", srv.URL+"/v1/incidents", Filing{
		Type:     "bgp-route-withdrawal",
		Severity: SevCritical,
		Title:    "2021 Facebook outage",
	})
	if code != http.StatusCreated {
		t.Fatalf("file: %d %s", code, body)
	}
	inc := decode[Incident](t, body)
	if inc.ID == "" || inc.Status != StatusOpen || inc.Question == "" {
		t.Fatalf("filed incident %+v", inc)
	}

	code, body = doJSON(t, "GET", srv.URL+"/v1/incidents", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	page := decode[session.ListPage[Incident]](t, body)
	if len(page.Items) != 1 || page.Items[0].ID != inc.ID || page.Next != "" {
		t.Fatalf("list page %+v", page)
	}
	if len(page.Items[0].Events) != 0 {
		t.Error("list leaked event logs")
	}

	if err := proc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body = doJSON(t, "GET", srv.URL+"/v1/incidents/"+inc.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("get: %d %s", code, body)
	}
	got := decode[Incident](t, body)
	if got.Status != StatusResolved || got.Resolution == "" || got.Confidence < 7 {
		t.Errorf("drained incident %+v", got)
	}
	// The event log carries the bridged investigation steps, not just
	// lifecycle transitions.
	kinds := map[string]bool{}
	for _, e := range got.Events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{EvFiled, EvClaimed, EvInvestigating, EvResolved, "command", "round"} {
		if !kinds[want] {
			t.Errorf("event log missing %q kinds: %v", want, kinds)
		}
	}

	// ?status= filters.
	code, body = doJSON(t, "GET", srv.URL+"/v1/incidents?status=open", nil)
	if code != http.StatusOK || len(decode[session.ListPage[Incident]](t, body).Items) != 0 {
		t.Errorf("open filter after drain: %d %s", code, body)
	}
	code, body = doJSON(t, "GET", srv.URL+"/v1/incidents?status=resolved", nil)
	if code != http.StatusOK || len(decode[session.ListPage[Incident]](t, body).Items) != 1 {
		t.Errorf("resolved filter: %d %s", code, body)
	}
}

// TestAPIPagination pins the shared envelope on GET /v1/incidents.
func TestAPIPagination(t *testing.T) {
	srv, st, _ := newTestAPI(t)
	for i := 0; i < 5; i++ {
		if _, err := st.File(Filing{Type: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	code, body := doJSON(t, "GET", srv.URL+"/v1/incidents?limit=2", nil)
	if code != http.StatusOK {
		t.Fatalf("page 1: %d %s", code, body)
	}
	p1 := decode[session.ListPage[Incident]](t, body)
	if len(p1.Items) != 2 || p1.Items[0].ID != "inc-000001" || p1.Next != "inc-000002" {
		t.Fatalf("page 1 = %+v", p1)
	}
	code, body = doJSON(t, "GET", srv.URL+"/v1/incidents?limit=2&after="+p1.Next, nil)
	if code != http.StatusOK {
		t.Fatalf("page 2: %d %s", code, body)
	}
	p2 := decode[session.ListPage[Incident]](t, body)
	if len(p2.Items) != 2 || p2.Items[0].ID != "inc-000003" || p2.Next != "inc-000004" {
		t.Fatalf("page 2 = %+v", p2)
	}
	if code, body = doJSON(t, "GET", srv.URL+"/v1/incidents?limit=nope", nil); code != http.StatusBadRequest {
		t.Errorf("bad limit: %d %s", code, body)
	}
}

// TestAPIErrors pins the error envelope: stable codes, invalid_state on
// illegal lifecycle transitions (409), conflict on a duplicate incident
// ID (409), not_found, bad_request.
func TestAPIErrors(t *testing.T) {
	srv, st, _ := newTestAPI(t)
	inc, err := st.File(Filing{Type: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Transition(inc.ID, StatusResolved, "done"); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
		code   string
	}{
		{"file without type", "POST", "/v1/incidents", Filing{}, http.StatusBadRequest, "bad_request"},
		{"file bad severity", "POST", "/v1/incidents", Filing{Type: "x", Severity: "meh"}, http.StatusBadRequest, "bad_request"},
		{"get unknown", "GET", "/v1/incidents/inc-404404", nil, http.StatusNotFound, "not_found"},
		{"resolve unknown", "POST", "/v1/incidents/inc-404404/resolve", nil, http.StatusNotFound, "not_found"},
		{"resolve resolved", "POST", "/v1/incidents/" + inc.ID + "/resolve", nil, http.StatusConflict, "invalid_state"},
		{"escalate resolved", "POST", "/v1/incidents/" + inc.ID + "/escalate", nil, http.StatusConflict, "invalid_state"},
		{"bad status filter", "GET", "/v1/incidents?status=bogus", nil, http.StatusBadRequest, "bad_request"},
		{"file duplicate id", "POST", "/v1/incidents", Filing{ID: inc.ID, Type: "t"}, http.StatusConflict, "conflict"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := doJSON(t, tc.method, srv.URL+tc.path, tc.body)
			if code != tc.status {
				t.Fatalf("status = %d %s, want %d", code, body, tc.status)
			}
			resp := decode[session.ErrorResponse](t, body)
			if resp.Error.Code != tc.code || resp.Error.Message == "" {
				t.Errorf("envelope = %s, want code %s", body, tc.code)
			}
		})
	}
}

// TestAPIManualTransitions drives operator resolve/escalate over HTTP.
func TestAPIManualTransitions(t *testing.T) {
	srv, st, _ := newTestAPI(t)
	a, _ := st.File(Filing{Type: "a"})
	b, _ := st.File(Filing{Type: "b"})

	code, body := doJSON(t, "POST", srv.URL+"/v1/incidents/"+a.ID+"/resolve",
		TransitionRequest{Note: "known benign"})
	if code != http.StatusOK {
		t.Fatalf("resolve: %d %s", code, body)
	}
	if got := decode[Incident](t, body); got.Status != StatusResolved || got.Resolution != "known benign" {
		t.Errorf("manual resolve %+v", got)
	}
	code, body = doJSON(t, "POST", srv.URL+"/v1/incidents/"+b.ID+"/escalate", nil)
	if code != http.StatusOK {
		t.Fatalf("escalate: %d %s", code, body)
	}
	if got := decode[Incident](t, body); got.Status != StatusEscalated {
		t.Errorf("manual escalate %+v", got)
	}
}

// TestAPIStatsBlock asserts the `incidents` block of GET /v1/stats.
func TestAPIStatsBlock(t *testing.T) {
	srv, st, proc := newTestAPI(t)
	if _, err := FileAll(st, []Filing{
		{Type: "bgp-route-withdrawal", Title: "2021 Facebook outage", Question: "What caused the 2021 Facebook outage?"},
		{Type: "bgp-route-withdrawal", Title: "2021 Facebook outage", Question: "What caused the 2021 Facebook outage?"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := proc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	code, body := doJSON(t, "GET", srv.URL+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	blockRaw, ok := raw["incidents"]
	if !ok {
		t.Fatalf("stats missing incidents block: %s", body)
	}
	block := decode[PipelineStats](t, blockRaw)
	if block.Filed != 2 || block.Resolved != 2 || block.QueueDepth != 0 {
		t.Errorf("incidents store stats = %+v", block.Stats)
	}
	if block.Leaders != 1 || block.Followers != 1 || block.SavedRounds == 0 {
		t.Errorf("incidents processor stats = %+v", block.ProcessorStats)
	}
	// The block carries the documented wire keys.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blockRaw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"filed", "queue_depth", "claimed", "investigating", "resolved", "escalated", "leaders", "followers", "saved_rounds", "workers"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("incidents block missing %q: %s", k, blockRaw)
		}
	}
}
