package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/stream"
	"repro/internal/websim"
	"repro/internal/world"
)

const question = "Which is more vulnerable to solar activity? The fiber optic cable that connects Brazil to Europe or the one that connects the US to Europe?"

// investigated trains Bob and investigates the question, returning the
// agent, the investigation and how many events the agent emitted.
func investigated(t *testing.T) (*agent.Agent, agent.Investigation, int64) {
	t.Helper()
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	bob := agent.New(agent.BobRole(), llm.NewSim(), eng, nil, agent.Config{})
	var events int64
	bob.Observer = func(stream.Event) { events++ }
	ctx := context.Background()
	if _, err := bob.Train(ctx); err != nil {
		t.Fatal(err)
	}
	inv, err := bob.Investigate(ctx, question)
	if err != nil {
		t.Fatal(err)
	}
	return bob, inv, events
}

func TestBuildReport(t *testing.T) {
	bob, inv, events := investigated(t)
	r := Build(bob, inv, events)
	if r.Question != question || r.Confidence < 8 {
		t.Errorf("report header wrong: %+v", r)
	}
	if len(r.Rounds) < 2 {
		t.Errorf("rounds missing: %d", len(r.Rounds))
	}
	if len(r.Evidence) == 0 {
		t.Fatal("no evidence collected")
	}
	// Every evidence item must carry at least one source URL.
	sawLatitude := false
	for _, e := range r.Evidence {
		if len(e.Sources) == 0 {
			t.Errorf("evidence without source: %q", e.Fact)
		}
		for _, s := range e.Sources {
			if !strings.HasPrefix(s, "https://") {
				t.Errorf("non-URL source %q", s)
			}
		}
		if strings.Contains(e.Fact, "maximum geomagnetic latitude") {
			sawLatitude = true
		}
	}
	if !sawLatitude {
		t.Error("the deciding latitude evidence is missing from the report")
	}
	if r.TraceEvents == 0 || r.TraceEvents != events {
		t.Errorf("report counts %d trace events, want the %d emitted", r.TraceEvents, events)
	}
}

func TestWriteMarkdown(t *testing.T) {
	bob, inv, events := investigated(t)
	r := Build(bob, inv, events)
	var buf bytes.Buffer
	if err := r.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	for _, want := range []string{
		"# Investigation report:",
		"## Conclusion",
		"## Self-learning history",
		"| round | confidence |",
		"## Supporting evidence",
		"source: https://",
		"trace events recorded",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestReportWithEmptyMemory(t *testing.T) {
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	bob := agent.New(agent.BobRole(), llm.NewSim(), eng, nil, agent.Config{MaxRounds: 1})
	// No training, and self-learning bounded to one round: the report
	// must still render, flagging the lack of evidence.
	inv, err := bob.Investigate(context.Background(), "Which is safer, option A or option B?")
	if err != nil {
		t.Fatal(err)
	}
	r := Build(bob, inv, 0)
	var buf bytes.Buffer
	if err := r.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "general knowledge only") &&
		len(r.Evidence) > 0 {
		t.Errorf("weak investigation should be flagged: %s", buf.String())
	}
}
