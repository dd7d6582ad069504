package agent

import (
	"context"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/memory"
	"repro/internal/stream"
	"repro/internal/websim"
	"repro/internal/world"
)

const cableQuestion = "Which is more vulnerable to solar activity? The fiber optic cable that connects Brazil to Europe or the one that connects the US to Europe?"
const dcQuestion = "Whose datacenter is more vulnerable? Google's data centers or Facebook's data centers?"

// newBob builds and trains agent Bob against the default simulated web.
func newBob(t *testing.T, opts websim.Options, cfg Config) *Agent {
	t.Helper()
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), opts)
	bob := New(BobRole(), llm.NewSim(), eng, nil, cfg)
	if _, err := bob.Train(context.Background()); err != nil {
		t.Fatalf("train: %v", err)
	}
	return bob
}

func TestTrainPopulatesMemory(t *testing.T) {
	bob := newBob(t, websim.Options{}, Config{})
	if bob.Memory.Len() == 0 {
		t.Fatal("training memorized nothing")
	}
	text := bob.Memory.KnowledgeText("solar storms", 20)
	if !strings.Contains(strings.ToLower(text), "coronal mass ejection") {
		t.Error("training missed the CME science")
	}
}

func TestRoundZeroIsUnderconfident(t *testing.T) {
	// Immediately after goal training, Bob must not yet be confident on
	// the cable question — the paper's round-0 confidence was 3.
	bob := newBob(t, websim.Options{}, Config{})
	ans, err := bob.Ask(context.Background(), cableQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Confidence >= 7 {
		t.Errorf("round-0 confidence = %d, want < 7 (self-learning must be needed)", ans.Confidence)
	}
}

func TestInvestigateCableQuestion(t *testing.T) {
	// The paper's headline result: after self-learning, Bob answers the
	// cable question with the US-Europe verdict at confidence 8-9.
	bob := newBob(t, websim.Options{}, Config{})
	inv, err := bob.Investigate(context.Background(), cableQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Rounds) < 2 {
		t.Errorf("expected at least 2 rounds (self-learning), got %d", len(inv.Rounds))
	}
	if inv.Final.Confidence < 8 {
		t.Errorf("final confidence = %d, want >= 8", inv.Final.Confidence)
	}
	if !strings.Contains(strings.ToLower(inv.Final.Verdict), "us to europe") {
		t.Errorf("final verdict = %q, want the US-Europe side", inv.Final.Verdict)
	}
	// Confidence must be non-decreasing across rounds.
	for i := 1; i < len(inv.Rounds); i++ {
		if inv.Rounds[i].Confidence < inv.Rounds[i-1].Confidence {
			t.Errorf("confidence dropped: round %d=%d, round %d=%d",
				i-1, inv.Rounds[i-1].Confidence, i, inv.Rounds[i].Confidence)
		}
	}
	// The answer must be grounded in the latitude mechanism.
	if !strings.Contains(strings.ToLower(inv.Final.Text), "latitude") {
		t.Errorf("final answer lacks the latitude mechanism: %q", inv.Final.Text)
	}
}

func TestInvestigateOperatorQuestion(t *testing.T) {
	bob := newBob(t, websim.Options{}, Config{})
	inv, err := bob.Investigate(context.Background(), dcQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(inv.Final.Verdict), "facebook") {
		t.Errorf("final verdict = %q, want the Facebook side", inv.Final.Verdict)
	}
	// The operator comparison caps at ~6 (the paper's Bob said "around
	// 6"): the loop must terminate via saturation or max rounds, not
	// spin forever.
	if inv.Final.Confidence < 5 || inv.Final.Confidence > 7 {
		t.Errorf("final confidence = %d, want 5..7", inv.Final.Confidence)
	}
}

func TestBobNeverSawTheSourcePaper(t *testing.T) {
	// §4.1 methodology: Bob must not have the SIGCOMM paper as a
	// knowledge source.
	bob := newBob(t, websim.Options{}, Config{})
	for _, q := range []string{cableQuestion, dcQuestion} {
		if _, err := bob.Investigate(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if bob.SawSource("dl.acm.org") {
		t.Error("agent memorized content from the restricted source paper")
	}
}

func TestPlanAfterTraining(t *testing.T) {
	bob := newBob(t, websim.Options{}, Config{})
	// Give Bob a chance to pull in the operations material the way the
	// paper's Bob did during his solar-storm study.
	if _, err := bob.SelfLearn(context.Background(), []string{
		"operator response planning severe space weather",
	}); err != nil {
		t.Fatal(err)
	}
	items, err := bob.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, it := range items {
		names[it.Name] = true
	}
	// The two elements the paper found "highly consistent" must be
	// present once the handbook is in memory.
	if !names["predictive shutdown"] || !names["redundancy utilization"] {
		t.Errorf("plan missing the core strategies: %+v", items)
	}
}

func TestThresholdControlsEffort(t *testing.T) {
	// §3: a higher confidence threshold means a longer self-learning
	// process. A threshold of 3 should accept the round-0 answer; a
	// threshold of 8 must trigger self-learning.
	lax := newBob(t, websim.Options{}, Config{ConfidenceThreshold: 3})
	invLax, err := lax.Investigate(context.Background(), cableQuestion)
	if err != nil {
		t.Fatal(err)
	}
	strict := newBob(t, websim.Options{}, Config{ConfidenceThreshold: 8})
	invStrict, err := strict.Investigate(context.Background(), cableQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if len(invStrict.Rounds) <= len(invLax.Rounds) {
		t.Errorf("strict threshold rounds (%d) should exceed lax (%d)",
			len(invStrict.Rounds), len(invLax.Rounds))
	}
	if invStrict.Final.Confidence <= invLax.Final.Confidence {
		t.Errorf("strict final confidence (%d) should exceed lax (%d)",
			invStrict.Final.Confidence, invLax.Final.Confidence)
	}
}

func TestInvestigationDeterministic(t *testing.T) {
	a := newBob(t, websim.Options{}, Config{})
	b := newBob(t, websim.Options{}, Config{})
	invA, err := a.Investigate(context.Background(), cableQuestion)
	if err != nil {
		t.Fatal(err)
	}
	invB, err := b.Investigate(context.Background(), cableQuestion)
	if err != nil {
		t.Fatal(err)
	}
	if invA.Final.Verdict != invB.Final.Verdict || invA.Final.Confidence != invB.Final.Confidence {
		t.Errorf("two identical agents diverged: %+v vs %+v", invA.Final, invB.Final)
	}
}

func TestIncidentAnalystInvestigatesFacebookOutage(t *testing.T) {
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	ada := New(IncidentAnalystRole("2021 Facebook outage"), llm.NewSim(), eng, nil, Config{})
	if _, err := ada.Train(context.Background()); err != nil {
		t.Fatal(err)
	}
	inv, err := ada.Investigate(context.Background(), "What caused the 2021 Facebook outage?")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Final.Confidence < 7 {
		t.Errorf("cause confidence = %d, want >= 7", inv.Final.Confidence)
	}
	if !strings.Contains(inv.Final.Text, "maintenance") && !strings.Contains(inv.Final.Text, "backbone") {
		t.Errorf("cause answer ungrounded: %q", inv.Final.Text)
	}
}

func TestSelfLearnSkipsGatedSources(t *testing.T) {
	// Self-learning must survive hitting social URLs it cannot fetch.
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{EnableSocial: false})
	bob := New(BobRole(), llm.NewSim(), eng, memory.NewStore(memory.DefaultWeights), Config{})
	// This query ranks the reddit thread highly when social is indexed;
	// with social gated the search just returns other docs, and any
	// fetch failure must be tolerated.
	added, err := bob.SelfLearn(context.Background(), []string{"storm shutdown playbooks discussion"})
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Error("self-learning added nothing")
	}
}

// TestAgentTraceAudit: an investigation's events let an operator audit
// it — the rounds, every self-learning query, and each memorized page
// with the URL and the query that found it.
func TestAgentTraceAudit(t *testing.T) {
	bob := newBob(t, websim.Options{}, Config{})
	evs := recordEvents(bob)
	if _, err := bob.Investigate(context.Background(), cableQuestion); err != nil {
		t.Fatal(err)
	}
	sources := map[string]bool{}
	for _, src := range bob.Memory.Sources() {
		sources[src] = true
	}
	queries := map[string]bool{}
	rounds, memorized := 0, 0
	for _, e := range *evs {
		switch e.Type {
		case stream.EventRound:
			rounds++
		case stream.EventSearch:
			if e.Query == "" {
				t.Errorf("search event without a query: %+v", e)
			}
			queries[e.Query] = true
		case stream.EventFetch:
			if e.Err != "" {
				continue
			}
			memorized++
			if !sources[e.URL] || !queries[e.Query] {
				t.Errorf("fetch %+v names no memorized source or no earlier search", e)
			}
		}
	}
	if rounds == 0 || len(queries) == 0 || memorized == 0 {
		t.Errorf("events hold %d rounds, %d searches, %d memorized fetches; want each > 0: %+v", rounds, len(queries), memorized, *evs)
	}
}
