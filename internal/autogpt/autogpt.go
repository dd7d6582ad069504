// Package autogpt implements the autonomous model-interaction loop the
// paper builds on: the runtime that feeds a goal to the model, receives
// THOUGHTS / REASONING / PLAN / COMMAND cycles, executes the commands
// (search, browse, memory and file operations) against the simulated web,
// and loops until the model declares the goal complete or the step budget
// runs out.
//
// The runtime is deliberately thin: all decision-making lives in the
// model (internal/llm), all knowledge lives in the memory store
// (internal/memory), and the runtime only executes commands and renders
// history back into the next prompt — the same division of labour as the
// real Auto-GPT.
package autogpt

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/facts"
	"repro/internal/llm"
	"repro/internal/memory"
	"repro/internal/prompt"
	"repro/internal/retrieval"
	"repro/internal/stream"
	"repro/internal/websim"
)

// Config configures a Runner.
type Config struct {
	// MaxSteps bounds command cycles per goal (default 12).
	MaxSteps int
	// SearchResults is how many results each google command requests
	// (default 5).
	SearchResults int
	// ChainOfThought enables query decomposition when a search comes
	// back thin — the paper's CoT sub-planning. Ablation A2 toggles it.
	ChainOfThought bool
	// RetrievalWorkers bounds concurrent web requests when a step fans
	// out (the CoT subquery searches). 0 selects the default width
	// (min(GOMAXPROCS, 8)); 1 forces sequential requests. History and
	// events are byte-identical at any setting. agent.Train
	// propagates the agent-level width here when this is 0.
	RetrievalWorkers int
}

func (c Config) withDefaults() Config {
	if c.MaxSteps <= 0 {
		c.MaxSteps = 12
	}
	if c.SearchResults <= 0 {
		c.SearchResults = 5
	}
	return c
}

// Runner executes goals autonomously.
type Runner struct {
	Model  llm.Model
	Web    websim.Web
	Memory *memory.Store
	Config Config
	// Observer, when set, receives every THOUGHTS/COMMAND/observation
	// step as it happens — the runner's only record of what it did.
	// Observation is passive: it never changes what the runner does,
	// only makes it visible.
	Observer stream.Observer

	files map[string]string
}

// GoalReport summarizes one goal's execution.
type GoalReport struct {
	Goal       string `json:"goal"`
	Steps      int    `json:"steps"`
	Searches   int    `json:"searches"`
	PagesRead  int    `json:"pages_read"`
	FactsSaved int    `json:"facts_saved"`
	Errors     int    `json:"errors"`
	Completed  bool   `json:"completed"`
}

// RunGoal drives the model through one goal until task_complete or the
// step budget is exhausted.
func (r *Runner) RunGoal(ctx context.Context, role, goal string) (GoalReport, error) {
	cfg := r.Config.withDefaults()
	report := GoalReport{Goal: goal}
	r.Observer.Emit(stream.Event{Type: stream.EventGoal, Goal: goal})
	var history []string
	for step := 0; step < cfg.MaxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		p := prompt.Prompt{
			Task:    prompt.TaskStep,
			Role:    role,
			Goal:    goal,
			History: strings.Join(history, "\n"),
		}
		out, err := llm.Complete(ctx, r.Model, p)
		if err != nil {
			return report, fmt.Errorf("autogpt: model: %w", err)
		}
		reply, err := prompt.ParseStep(out)
		if err != nil {
			return report, fmt.Errorf("autogpt: parse step: %w", err)
		}
		report.Steps++
		r.Observer.Emit(stream.Event{Type: stream.EventThoughts, Step: step, Text: reply.Thoughts})
		r.Observer.Emit(stream.Event{Type: stream.EventCommand, Step: step, Command: reply.Command.Name, Arg: reply.Command.Arg})
		done, lines := r.execute(ctx, reply.Command, goal, cfg, &report)
		if len(lines) > 0 {
			r.Observer.Emit(stream.Event{Type: stream.EventObservation, Step: step, Text: strings.Join(lines, "\n")})
		}
		history = append(history, lines...)
		if done {
			report.Completed = true
			return report, nil
		}
		// A cancelled context must stop the loop here, not after more
		// steps: command failures caused by cancellation are recorded as
		// history errors above, so without this check the loop would keep
		// burning model calls until the step budget ran out.
		if err := ctx.Err(); err != nil {
			return report, err
		}
	}
	return report, nil
}

// execute runs one command, returning whether the goal is complete and
// the history lines to append.
func (r *Runner) execute(ctx context.Context, cmd prompt.Command, goal string, cfg Config, report *GoalReport) (bool, []string) {
	switch cmd.Name {
	case "google":
		lines := r.google(ctx, cmd.Arg, cfg, report)
		// Chain-of-thought sub-planning: if the search came back thin,
		// decompose the query and search the sub-queries too. The
		// subqueries fan out concurrently through the retrieval pool and
		// commit their history lines in subquery order, so the rendered
		// history is byte-identical to searching them one by one.
		if cfg.ChainOfThought && report.Searches > 0 && len(lines) == 1 && thinResults(lines[0]) {
			subs := decompose(cmd.Arg)
			outs, err := retrieval.SearchAll(ctx, r.Web, subs, cfg.SearchResults, retrieval.Workers(cfg.RetrievalWorkers))
			if err != nil {
				// Cancelled mid-fan-out: commit nothing extra; the step
				// loop's context check ends the goal.
				return false, lines
			}
			for _, out := range outs {
				lines = append(lines, r.commitSearch(out, report))
			}
		}
		return false, lines

	case "browse_website":
		page, err := retrieval.Fetch(ctx, r.Web, cmd.Arg)
		if err != nil {
			report.Errors++
			return false, []string{prompt.HistoryError(cmd.Name, cmd.Arg, errString(err))}
		}
		saved := 0
		if _, ok := r.Memory.Add(page.Body, page.URL, goal); ok {
			saved = len(facts.Extract(page.Body))
			report.FactsSaved += saved
		}
		report.PagesRead++
		return false, []string{prompt.HistoryBrowse(cmd.Arg, saved)}

	case "memory_add":
		if _, ok := r.Memory.Add(cmd.Arg, "agent://note", goal); ok {
			report.FactsSaved += len(facts.Extract(cmd.Arg))
		}
		return false, []string{fmt.Sprintf("ran memory_add %q -> saved", truncate(cmd.Arg, 40))}

	case "write_to_file":
		name, content, _ := strings.Cut(cmd.Arg, "::")
		if r.files == nil {
			r.files = map[string]string{}
		}
		r.files[strings.TrimSpace(name)] = content
		return false, []string{fmt.Sprintf("ran write_to_file %q -> ok", name)}

	case "read_file":
		content, ok := r.files[strings.TrimSpace(cmd.Arg)]
		if !ok {
			report.Errors++
			return false, []string{prompt.HistoryError(cmd.Name, cmd.Arg, "no such file")}
		}
		return false, []string{fmt.Sprintf("ran read_file %q -> %d chars", cmd.Arg, len(content))}

	case "task_complete":
		return true, nil

	default:
		report.Errors++
		return false, []string{prompt.HistoryError(cmd.Name, cmd.Arg, "unknown command")}
	}
}

func (r *Runner) google(ctx context.Context, query string, cfg Config, report *GoalReport) []string {
	return []string{r.commitSearch(retrieval.Search(ctx, r.Web, query, cfg.SearchResults), report)}
}

// commitSearch turns one search outcome into its history line — the
// commit half of a search, kept separate from the request so fanned-out
// searches can commit in canonical order.
func (r *Runner) commitSearch(out retrieval.SearchOutcome, report *GoalReport) string {
	if out.Err != nil {
		report.Errors++
		return prompt.HistoryError("google", out.Query, errString(out.Err))
	}
	report.Searches++
	urls := make([]string, 0, len(out.Results))
	for _, res := range out.Results {
		urls = append(urls, res.URL)
	}
	return prompt.HistoryGoogle(out.Query, urls)
}

// thinResults reports whether a google history line carries fewer than
// two result URLs.
func thinResults(line string) bool {
	evs := prompt.ParseHistory(line)
	return len(evs) == 1 && len(evs[0].URLs) < 2
}

// decompose splits a query into overlapping keyword chunks — the
// runtime's stand-in for Chain-of-Thought sub-planning of an ambiguous
// step.
func decompose(query string) []string {
	words := strings.Fields(query)
	if len(words) < 4 {
		return nil
	}
	mid := len(words) / 2
	a := strings.Join(words[:mid+1], " ")
	b := strings.Join(words[mid:], " ")
	if a == b {
		return []string{a}
	}
	return []string{a, b}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// errString compresses an error chain to its outermost message without
// the wrapped detail (history lines should stay single-line and short).
func errString(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return msg
}
