package agent_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/evalcache"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/quiz"
	"repro/internal/stream"
	"repro/internal/websim"
)

// taskCount counts completions by prompt task.
type taskCount struct {
	mu sync.Mutex
	n  map[prompt.Task]int
}

func (c *taskCount) add(task prompt.Task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = map[prompt.Task]int{}
	}
	c.n[task]++
}

func (c *taskCount) count(task prompt.Task) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[task]
}

// wireModel implements only llm.Model, the encoded-string contract of
// the remote backend. Like llmstub, it parses each prompt and has the
// simulated model answer it; respond, when set, answers instead and may
// block or fail. It counts each prompt's task and how many calls are in
// flight.
type wireModel struct {
	sim      *llm.Sim
	respond  func(ctx context.Context, p prompt.Prompt) (string, error)
	inFlight atomic.Int64
	taskCount
}

func (m *wireModel) Complete(ctx context.Context, encoded string) (string, error) {
	m.inFlight.Add(1)
	defer m.inFlight.Add(-1)
	p, err := prompt.Parse(encoded)
	if err != nil {
		return "", err
	}
	m.add(p.Task)
	if m.respond != nil {
		return m.respond(ctx, p)
	}
	return m.sim.Complete(ctx, encoded)
}

// inProcessModel is the simulated model on the structured fast path,
// counting its completions by task.
type inProcessModel struct {
	*llm.Sim
	taskCount
}

func (m *inProcessModel) CompleteParsed(ctx context.Context, p prompt.Prompt) (string, error) {
	m.add(p.Task)
	return m.Sim.CompleteParsed(ctx, p)
}

// investigate runs question on a fresh, untrained agent over the
// seed-42 engine and returns the investigation as JSON and every event
// the agent emitted.
func investigate(t *testing.T, m llm.Model, cfg agent.Config, question string) ([]byte, []stream.Event) {
	t.Helper()
	a := agent.New(agent.BobRole(), m, evalcache.Engine(42, websim.Options{}), nil, cfg)
	var evs []stream.Event
	a.Observer = func(e stream.Event) { evs = append(evs, e) }
	inv, err := a.Investigate(context.Background(), question)
	if err != nil {
		t.Fatalf("investigate %q: %v", question, err)
	}
	js, err := json.Marshal(inv)
	if err != nil {
		t.Fatal(err)
	}
	return js, evs
}

// TestWireInvestigateMatchesSim: a wire model investigates every
// conclusion question exactly as the in-process sim does: the same
// investigation, and the same events in the same order. On either
// model every round below MaxRounds sends its answer and search prompts
// together, so the conclusions' 18 rounds cost 36 completions, the
// proposals of the 8 confident rounds discarded.
func TestWireInvestigateMatchesSim(t *testing.T) {
	type counted interface {
		llm.Model
		count(prompt.Task) int
	}
	var totals [2]int
	for i, c := range quiz.Conclusions() {
		sim := &inProcessModel{Sim: llm.NewSim()}
		wantInv, wantEvents := investigate(t, sim, agent.Config{}, c.Question)
		wire := &wireModel{sim: llm.NewSim()}
		gotInv, gotEvents := investigate(t, wire, agent.Config{}, c.Question)
		if !bytes.Equal(gotInv, wantInv) {
			t.Errorf("question %d: wire investigation\n%s\nwant the sim's\n%s", i, gotInv, wantInv)
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Errorf("question %d: wire events diverged from the sim's", i)
		}
		rounds := 0
		for _, e := range wantEvents {
			if e.Type == stream.EventRound {
				rounds++
			}
		}
		// No round reaches MaxRounds, so every round sent both prompts.
		for j, m := range []counted{sim, wire} {
			answers, searches := m.count(prompt.TaskAnswer), m.count(prompt.TaskSearches)
			if answers != rounds || searches != rounds {
				t.Errorf("question %d: %T sent %d answer and %d search prompts over %d rounds, want %d of each",
					i, m, answers, searches, rounds, rounds)
			}
			totals[j] += answers + searches
		}
	}
	if totals != [2]int{36, 36} {
		t.Errorf("completions over the conclusions: in-process %d, wire %d; want 36 each", totals[0], totals[1])
	}

	// A round with round == MaxRounds cannot continue: it sends no
	// proposal.
	wire := &wireModel{sim: llm.NewSim()}
	investigate(t, wire, agent.Config{MaxRounds: 1}, quiz.Conclusions()[0].Question)
	if answers, searches := wire.count(prompt.TaskAnswer), wire.count(prompt.TaskSearches); answers != 2 || searches != 1 {
		t.Errorf("MaxRounds 1: %d answer and %d search prompts, want 2 and 1", answers, searches)
	}
}

// TestWireRoundsOverlap: each round sends its search proposal while its
// answer is still outstanding. The model holds every answer until that
// round's search prompt has arrived, so a loop that sends the proposal
// only after the answer waits out the deadline.
func TestWireRoundsOverlap(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sim := llm.NewSim()
	var mu sync.Mutex
	arrived := map[string]chan struct{}{} // by the round's knowledge and question
	arrival := func(p prompt.Prompt) chan struct{} {
		key := p.Knowledge + "\x00" + p.Question
		if arrived[key] == nil {
			arrived[key] = make(chan struct{})
		}
		return arrived[key]
	}
	wire := &wireModel{respond: func(ctx context.Context, p prompt.Prompt) (string, error) {
		mu.Lock()
		ch := arrival(p)
		if p.Task == prompt.TaskSearches {
			select {
			case <-ch: // an earlier round had the same knowledge
			default:
				close(ch)
			}
		}
		mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return "", ctx.Err()
		}
		return sim.Complete(ctx, p.Encode())
	}}
	q := quiz.Conclusions()[0].Question
	a := agent.New(agent.BobRole(), wire, evalcache.Engine(42, websim.Options{}), nil, agent.Config{})
	inv, err := a.Investigate(ctx, q)
	if err != nil {
		t.Fatalf("investigate: %v", err)
	}
	if n := wire.inFlight.Load(); n != 0 {
		t.Errorf("%d model calls still in flight after Investigate returned", n)
	}
	got, err := json.Marshal(inv)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := investigate(t, llm.NewSim(), agent.Config{}, q); !bytes.Equal(got, want) {
		t.Errorf("overlapped investigation\n%s\nwant the sim's\n%s", got, want)
	}
}

// TestWireRoundErrors: with both prompts of a round in flight, the
// answer's error wins even over a successful proposal, the proposal's
// error surfaces only when the round continues, and no model call
// outlives Investigate.
func TestWireRoundErrors(t *testing.T) {
	errAnswer := errors.New("answer failed")
	errSearch := errors.New("search failed")
	sim := llm.NewSim()
	simReply := func(ctx context.Context, p prompt.Prompt) (string, error) {
		return sim.Complete(ctx, p.Encode())
	}
	// wait blocks until ch is closed or ctx ends.
	wait := func(ctx context.Context, ch chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Each case answers the round's two prompts. The search prompt
	// closes searched and the answer prompt closes answered, each at a
	// point the case chooses.
	type signals struct{ searched, answered chan struct{} }
	cases := []struct {
		name             string
		answer, searches func(context.Context, prompt.Prompt, signals) (string, error)
		want             error
	}{
		{
			name: "answer fails after the proposal succeeded",
			answer: func(ctx context.Context, _ prompt.Prompt, s signals) (string, error) {
				if err := wait(ctx, s.searched); err != nil {
					return "", err
				}
				return "", errAnswer
			},
			searches: func(ctx context.Context, p prompt.Prompt, s signals) (string, error) {
				defer close(s.searched)
				return simReply(ctx, p)
			},
			want: errAnswer,
		},
		{
			name: "proposal fails in a continuing round",
			answer: func(ctx context.Context, p prompt.Prompt, _ signals) (string, error) {
				return simReply(ctx, p) // round 0 of an untrained agent is unsure
			},
			searches: func(context.Context, prompt.Prompt, signals) (string, error) {
				return "", errSearch
			},
			want: errSearch,
		},
		{
			name: "proposal fails after a confident answer",
			answer: func(ctx context.Context, _ prompt.Prompt, s signals) (string, error) {
				defer close(s.answered)
				if err := wait(ctx, s.searched); err != nil {
					return "", err
				}
				return prompt.AnswerReply{Answer: "known", Confidence: 10}.Encode(), nil
			},
			searches: func(ctx context.Context, _ prompt.Prompt, s signals) (string, error) {
				close(s.searched)
				// Outlast the answer, so a loop that returned without
				// joining the proposal would leave this call in flight.
				if err := wait(ctx, s.answered); err != nil {
					return "", err
				}
				time.Sleep(20 * time.Millisecond)
				return "", errSearch
			},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			sig := signals{searched: make(chan struct{}), answered: make(chan struct{})}
			wire := &wireModel{respond: func(ctx context.Context, p prompt.Prompt) (string, error) {
				if p.Task == prompt.TaskSearches {
					return tc.searches(ctx, p, sig)
				}
				return tc.answer(ctx, p, sig)
			}}
			a := agent.New(agent.BobRole(), wire, evalcache.Engine(42, websim.Options{}), nil, agent.Config{})
			_, err := a.Investigate(ctx, quiz.Conclusions()[0].Question)
			if n := wire.inFlight.Load(); n != 0 {
				t.Errorf("%d model calls still in flight after Investigate returned", n)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("Investigate error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestWireRoundEndCancelsProposal: a round that ends the loop, on a
// confident answer or an answer error, cancels its outstanding search
// proposal rather than waiting it out (a discarded request held by a
// long Retry-After must not hold the answer), and joins it, so nothing
// is in flight when Investigate returns. The proposal here holds until
// its context ends, so a loop that only joined it would return on the
// test's deadline.
func TestWireRoundEndCancelsProposal(t *testing.T) {
	errAnswer := errors.New("answer failed")
	cases := []struct {
		name   string
		answer func() (string, error)
		want   error
	}{
		{
			name: "confident answer",
			answer: func() (string, error) {
				return prompt.AnswerReply{Answer: "known", Confidence: 10}.Encode(), nil
			},
		},
		{
			name:   "answer error",
			answer: func() (string, error) { return "", errAnswer },
			want:   errAnswer,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			searched := make(chan struct{})
			wire := &wireModel{respond: func(ctx context.Context, p prompt.Prompt) (string, error) {
				if p.Task == prompt.TaskSearches {
					close(searched)
					<-ctx.Done()
					return "", ctx.Err()
				}
				select {
				case <-searched: // the proposal is in flight
				case <-ctx.Done():
					return "", ctx.Err()
				}
				return tc.answer()
			}}
			a := agent.New(agent.BobRole(), wire, evalcache.Engine(42, websim.Options{}), nil, agent.Config{})
			_, err := a.Investigate(ctx, quiz.Conclusions()[0].Question)
			if ctx.Err() != nil {
				t.Fatalf("Investigate returned on the test deadline: it waited out the discarded proposal")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("Investigate error = %v, want %v", err, tc.want)
			}
			if n := wire.inFlight.Load(); n != 0 {
				t.Errorf("%d model calls still in flight after Investigate returned", n)
			}
		})
	}
}
