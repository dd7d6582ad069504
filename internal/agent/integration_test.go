package agent

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/memory"
	"repro/internal/stream"
	"repro/internal/websim"
	"repro/internal/world"
)

// TestAgentOverHTTP runs the whole agent pipeline against the simulated
// Internet served over real HTTP: training, self-learning and the final
// verdict all travel through a network client.
func TestAgentOverHTTP(t *testing.T) {
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	srv := httptest.NewServer(websim.Handler(eng))
	defer srv.Close()

	client := websim.NewClient(srv.URL, nil)
	bob := New(BobRole(), llm.NewSim(), client, nil, Config{})
	ctx := context.Background()
	if _, err := bob.Train(ctx); err != nil {
		t.Fatal(err)
	}
	inv, err := bob.Investigate(ctx, cableQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(inv.Final.Verdict), "us to europe") {
		t.Errorf("over-HTTP verdict = %q", inv.Final.Verdict)
	}
	if inv.Final.Confidence < 8 {
		t.Errorf("over-HTTP confidence = %d", inv.Final.Confidence)
	}
	if eng.Stats().Queries == 0 {
		t.Error("engine saw no HTTP traffic")
	}
}

// TestAgentSurvivesFlakyWeb trains and investigates against a web where
// 20% of requests fail transiently: the agent must still converge to the
// correct verdict, just with more recorded errors.
func TestAgentSurvivesFlakyWeb(t *testing.T) {
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{FailureRate: 0.2})
	bob := New(BobRole(), llm.NewSim(), eng, nil, Config{MaxRounds: 6})
	evs := recordEvents(bob)
	ctx := context.Background()
	if _, err := bob.Train(ctx); err != nil {
		t.Fatal(err)
	}
	inv, err := bob.Investigate(ctx, cableQuestion)
	if err != nil {
		t.Fatalf("flaky web killed the investigation: %v", err)
	}
	if !strings.Contains(strings.ToLower(inv.Final.Verdict), "us to europe") {
		t.Errorf("flaky-web verdict = %q (conf %d)", inv.Final.Verdict, inv.Final.Confidence)
	}
	recorded := false
	for _, e := range *evs {
		if (e.Type == stream.EventSearch || e.Type == stream.EventFetch) && strings.Contains(e.Err, "transient") {
			recorded = true
		}
	}
	if !recorded {
		t.Error("no search or fetch event records a transient failure")
	}
}

// TestAgentSessionPersistence saves the trained memory to knowledge.json
// and resumes in a second agent that answers without retraining.
func TestAgentSessionPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "knowledge.json")
	ctx := context.Background()
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})

	first := New(BobRole(), llm.NewSim(), eng, nil, Config{})
	if _, err := first.Train(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Investigate(ctx, cableQuestion); err != nil {
		t.Fatal(err)
	}
	if err := first.Memory.Save(path); err != nil {
		t.Fatal(err)
	}

	store := memory.NewStore(memory.DefaultWeights)
	if err := store.Load(path); err != nil {
		t.Fatal(err)
	}
	resumed := New(BobRole(), llm.NewSim(), eng, store, Config{})
	ans, err := resumed.Ask(ctx, cableQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Confidence < 8 || !strings.Contains(strings.ToLower(ans.Verdict), "us to europe") {
		t.Errorf("resumed agent lost its knowledge: %+v", ans)
	}
}
