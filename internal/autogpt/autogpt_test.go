package autogpt

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/memory"
	"repro/internal/prompt"
	"repro/internal/stream"
	"repro/internal/websim"
	"repro/internal/world"
)

func newRunner(t *testing.T, cfg Config) (*Runner, *websim.Engine) {
	t.Helper()
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	return &Runner{
		Model:  llm.NewSim(),
		Web:    eng,
		Memory: memory.NewStore(memory.DefaultWeights),
		Config: cfg,
	}, eng
}

const solarGoal = "Understand solar superstorms and Coronal Mass Ejection, and principles of their formation and effects."

func TestRunGoalCompletes(t *testing.T) {
	r, eng := newRunner(t, Config{})
	report, err := r.RunGoal(context.Background(), "Agent Bob, an Internet researcher", solarGoal)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Errorf("goal did not complete: %+v", report)
	}
	if report.Searches < 1 {
		t.Errorf("no searches performed: %+v", report)
	}
	if report.PagesRead < 1 {
		t.Errorf("no pages read: %+v", report)
	}
	if r.Memory.Len() == 0 {
		t.Error("nothing memorized")
	}
	if report.FactsSaved == 0 {
		t.Error("no structured facts saved from the solar goal")
	}
	if eng.Stats().Queries == 0 {
		t.Error("engine saw no queries")
	}
}

// TestRunGoalEventCounts: the events of a completed goal show the full
// cycle — one goal, a thoughts and a command per step, and observations
// of a search with results and of a page read.
func TestRunGoalEventCounts(t *testing.T) {
	r, _ := newRunner(t, Config{})
	counts := map[string]int{}
	googled, browsed := 0, 0
	r.Observer = func(e stream.Event) {
		counts[e.Type]++
		if e.Type == stream.EventObservation {
			if strings.HasPrefix(e.Text, "ran google ") && strings.Contains(e.Text, "-> results: https://") {
				googled++
			}
			if strings.HasPrefix(e.Text, "ran browse_website ") && strings.Contains(e.Text, "-> saved ") {
				browsed++
			}
		}
	}
	report, err := r.RunGoal(context.Background(), "Agent Bob, an Internet researcher", solarGoal)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Completed {
		t.Fatalf("goal did not complete: %+v", report)
	}
	if counts[stream.EventGoal] != 1 {
		t.Errorf("%d goal events, want 1", counts[stream.EventGoal])
	}
	for _, typ := range []string{stream.EventThoughts, stream.EventCommand} {
		if counts[typ] != report.Steps {
			t.Errorf("%d %s events, want one per step (%d)", counts[typ], typ, report.Steps)
		}
	}
	if googled == 0 || browsed == 0 {
		t.Errorf("observations hold %d google results and %d page reads, want both > 0", googled, browsed)
	}
}

func TestRunGoalMemorizesRelevantKnowledge(t *testing.T) {
	r, _ := newRunner(t, Config{})
	if _, err := r.RunGoal(context.Background(), "Bob", solarGoal); err != nil {
		t.Fatal(err)
	}
	text := r.Memory.KnowledgeText("solar storm latitude", 10)
	if !strings.Contains(strings.ToLower(text), "geomagnetic") {
		t.Errorf("memorized knowledge lacks domain content: %q", text)
	}
}

func TestStepBudgetRespected(t *testing.T) {
	r, _ := newRunner(t, Config{MaxSteps: 2})
	report, err := r.RunGoal(context.Background(), "Bob", solarGoal)
	if err != nil {
		t.Fatal(err)
	}
	if report.Steps > 2 {
		t.Errorf("steps = %d, want <= 2", report.Steps)
	}
	if report.Completed {
		t.Error("2-step budget cannot complete search+browse+complete cycle")
	}
}

func TestContextCancellation(t *testing.T) {
	r, _ := newRunner(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunGoal(ctx, "Bob", solarGoal); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// scriptedModel replays fixed step replies, for driving the runner down
// specific command paths.
type scriptedModel struct {
	replies []prompt.StepReply
	calls   int
}

func (m *scriptedModel) Complete(_ context.Context, encoded string) (string, error) {
	p, err := prompt.Parse(encoded)
	if err != nil {
		return "", err
	}
	if p.Task != prompt.TaskStep {
		return "", errors.New("scripted model only does steps")
	}
	if m.calls >= len(m.replies) {
		return prompt.StepReply{Thoughts: "t", Reasoning: "r",
			Command: prompt.Command{Name: "task_complete"}}.Encode(), nil
	}
	reply := m.replies[m.calls]
	m.calls++
	return reply.Encode(), nil
}

func TestCommandErrorsAreSurvivable(t *testing.T) {
	c := corpus.Generate(world.Default(), 42)
	eng := websim.NewEngine(c, websim.Options{})
	var restrictedURL string
	for _, d := range c.Docs {
		if d.Source == corpus.SourceRestricted {
			restrictedURL = d.URL
		}
	}
	m := &scriptedModel{replies: []prompt.StepReply{
		{Thoughts: "t", Reasoning: "r", Command: prompt.Command{Name: "browse_website", Arg: restrictedURL}},
		{Thoughts: "t", Reasoning: "r", Command: prompt.Command{Name: "browse_website", Arg: "https://missing.example/x"}},
		{Thoughts: "t", Reasoning: "r", Command: prompt.Command{Name: "bogus_command", Arg: ""}},
	}}
	r := &Runner{Model: m, Web: eng, Memory: memory.NewStore(memory.DefaultWeights), Config: Config{MaxSteps: 5}}
	report, err := r.RunGoal(context.Background(), "Bob", "goal")
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 3 {
		t.Errorf("errors = %d, want 3", report.Errors)
	}
	if !report.Completed {
		t.Error("runner should recover from errors and complete")
	}
	if report.PagesRead != 0 {
		t.Errorf("restricted/missing pages were read: %+v", report)
	}
}

func TestFileCommands(t *testing.T) {
	m := &scriptedModel{replies: []prompt.StepReply{
		{Thoughts: "t", Reasoning: "r", Command: prompt.Command{Name: "write_to_file", Arg: "notes.txt::solar storm findings"}},
		{Thoughts: "t", Reasoning: "r", Command: prompt.Command{Name: "read_file", Arg: "notes.txt"}},
		{Thoughts: "t", Reasoning: "r", Command: prompt.Command{Name: "read_file", Arg: "missing.txt"}},
	}}
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	r := &Runner{Model: m, Web: eng, Memory: memory.NewStore(memory.DefaultWeights), Config: Config{MaxSteps: 5}}
	report, err := r.RunGoal(context.Background(), "Bob", "goal")
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 1 {
		t.Errorf("errors = %d, want 1 (missing file)", report.Errors)
	}
	if r.files["notes.txt"] != "solar storm findings" {
		t.Errorf("file content = %q", r.files["notes.txt"])
	}
}

func TestMemoryAddCommand(t *testing.T) {
	m := &scriptedModel{replies: []prompt.StepReply{
		{Thoughts: "t", Reasoning: "r", Command: prompt.Command{Name: "memory_add",
			Arg: "Geomagnetic storm effects are far stronger at higher geomagnetic latitudes."}},
	}}
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	store := memory.NewStore(memory.DefaultWeights)
	r := &Runner{Model: m, Web: eng, Memory: store, Config: Config{MaxSteps: 3}}
	report, err := r.RunGoal(context.Background(), "Bob", "goal")
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Errorf("memory len = %d, want 1", store.Len())
	}
	if report.FactsSaved != 1 {
		t.Errorf("facts saved = %d, want 1 (the latitude rule)", report.FactsSaved)
	}
}

func TestChainOfThoughtWidensThinSearches(t *testing.T) {
	// A query matching exactly one document: CoT decomposition should
	// trigger extra sub-searches.
	m := &scriptedModel{replies: []prompt.StepReply{
		{Thoughts: "t", Reasoning: "r", Command: prompt.Command{Name: "google",
			Arg: "zorbulated flux capacitor quuxification blorp whizzle"}},
	}}
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	eng.Publish(corpus.Document{ID: "only-hit", URL: "https://x.example/only",
		Site: "x.example", Title: "zorbulated quuxification", Body: "flux capacitor zorbulated quuxification blorp whizzle", Source: corpus.SourceNews})

	run := func(cot bool) int {
		m.calls = 0
		r := &Runner{Model: m, Web: eng, Memory: memory.NewStore(memory.DefaultWeights),
			Config: Config{MaxSteps: 3, ChainOfThought: cot}}
		report, err := r.RunGoal(context.Background(), "Bob", "goal")
		if err != nil {
			t.Fatal(err)
		}
		return report.Searches
	}
	without := run(false)
	with := run(true)
	if with <= without {
		t.Errorf("CoT searches = %d, want > %d", with, without)
	}
}

func TestDecompose(t *testing.T) {
	if got := decompose("two words"); got != nil {
		t.Errorf("short query should not decompose: %v", got)
	}
	got := decompose("solar storm network infrastructure effects")
	if len(got) != 2 {
		t.Fatalf("decompose returned %v", got)
	}
	if !strings.Contains(got[0], "solar") || !strings.Contains(got[1], "effects") {
		t.Errorf("chunks lost content: %v", got)
	}
}

// cancellingModel cancels the context after a fixed number of model
// calls — simulating an operator hitting ^C mid-goal.
type cancellingModel struct {
	inner  llm.Model
	after  int
	calls  int
	cancel context.CancelFunc
}

func (m *cancellingModel) Complete(ctx context.Context, p string) (string, error) {
	m.calls++
	if m.calls == m.after {
		m.cancel()
	}
	return m.inner.Complete(ctx, p)
}

// TestRunGoalCancelledStopsPromptly asserts that a cancelled context
// ends the step loop immediately: without the post-command check, every
// web command after cancellation fails, gets recorded as a history
// error, and the loop keeps calling the model until MaxSteps runs out.
func TestRunGoalCancelledStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const after, maxSteps = 2, 12
	r, _ := newRunner(t, Config{MaxSteps: maxSteps})
	model := &cancellingModel{inner: r.Model, after: after, cancel: cancel}
	r.Model = model
	report, err := r.RunGoal(ctx, "Bob", solarGoal)
	if err == nil {
		t.Fatal("cancelled RunGoal returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if report.Steps > after {
		t.Errorf("ran %d steps after cancellation at step %d", report.Steps, after)
	}
	if model.calls > after {
		t.Errorf("model called %d times, want <= %d", model.calls, after)
	}
}
