// Command bob trains and queries the research agent interactively.
//
// Usage:
//
//	bob chat    [-memory knowledge.json]                # interactive session
//	bob train   [-memory knowledge.json] [-seed N] [-social] [-trace]
//	bob ask     [-memory knowledge.json] "question"
//	bob learn   [-memory knowledge.json] [-threshold N] "question"
//	bob report  [-memory knowledge.json] "question"   # investigate + markdown report
//	bob plan    [-memory knowledge.json]
//
// train populates the knowledge memory by running Bob's role goals
// through the autonomous loop and saves it to the memory file. ask
// answers from the stored knowledge only. learn runs the full knowledge
// testing + self-learning loop and saves the grown memory. plan asks for
// a response strategy.
//
// bob is a thin client of the session runtime (internal/session): it
// creates one managed session and drives its lifecycle, the same way an
// HTTP client drives the websimd agent API. Every command accepts
// -model to pick the LLM backend (sim, ensemble, remote; see
// internal/llm/backend) — an unknown name is a usage error.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error. Errors go to
// stderr; stdout carries only agent output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/agent"
	"repro/internal/llm/backend"
	"repro/internal/repl"
	"repro/internal/session"
	"repro/internal/websim"
)

// usageError distinguishes bad invocations (exit 2) from runtime
// failures (exit 1).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "bob: %v\n", err)
	var ue usageError
	if errors.As(err, &ue) {
		fmt.Fprintln(os.Stderr, "usage: bob <train|ask|learn|report|plan|chat> [flags] [question]")
		os.Exit(2)
	}
	os.Exit(1)
}

func newFlagSet(cmd string) *flag.FlagSet {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

func run(args []string) error {
	if len(args) < 1 {
		return usageError{"missing command"}
	}
	cmd := args[0]
	switch cmd {
	case "train", "ask", "learn", "report", "plan", "chat":
	default:
		return usageError{fmt.Sprintf("unknown command %q", cmd)}
	}
	fs := newFlagSet(cmd)
	memPath := fs.String("memory", "knowledge.json", "knowledge memory file")
	seed := fs.Uint64("seed", 42, "world/corpus seed")
	social := fs.Bool("social", false, "enable the social-media crawler extension")
	threshold := fs.Int("threshold", 7, "confidence threshold for self-learning")
	retrievalWorkers := fs.Int("retrieval-workers", 0, "concurrent web requests per self-learning round (0 = min(GOMAXPROCS, 8), 1 = sequential)")
	model := fs.String("model", "", "LLM backend: sim, ensemble, remote (empty = sim)")
	showTrace := fs.Bool("trace", false, "print the session's event log as JSON lines afterwards")
	if err := fs.Parse(args[1:]); err != nil {
		return usageError{err.Error()}
	}

	mgr := session.NewManager(session.ManagerConfig{Capacity: 1})
	sess, err := mgr.Create("bob", session.Config{
		Seed:        *seed,
		Model:       *model,
		WebOptions:  websim.Options{EnableSocial: *social},
		AgentConfig: agent.Config{ConfidenceThreshold: *threshold, RetrievalWorkers: *retrievalWorkers},
	})
	if err != nil {
		if errors.Is(err, backend.ErrUnknown) {
			return usageError{err.Error()}
		}
		return err
	}
	ctx := context.Background()
	if _, statErr := os.Stat(*memPath); statErr == nil {
		if err := sess.LoadMemory(ctx, *memPath); err != nil {
			return err
		}
		fmt.Printf("loaded %d knowledge items from %s\n", sess.MemoryLen(), *memPath)
	}

	if err := dispatch(ctx, cmd, fs.Args(), sess, *memPath, os.Stdout); err != nil {
		return err
	}
	if *showTrace {
		fmt.Println("\n--- trace ---")
		evs, _, _, err := sess.Events(0)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return err
			}
		}
	}
	return nil
}

func dispatch(ctx context.Context, cmd string, args []string, sess *session.Session, memPath string, out *os.File) error {
	switch cmd {
	case "train":
		rep, err := sess.Train(ctx)
		if err != nil {
			return err
		}
		for _, g := range rep.Goals {
			fmt.Fprintf(out, "goal %q: %d searches, %d pages, %d facts, completed=%v\n",
				clip(g.Goal, 50), g.Searches, g.PagesRead, g.FactsSaved, g.Completed)
		}
		fmt.Fprintf(out, "memory now holds %d items\n", sess.MemoryLen())
		return save(ctx, sess, memPath, out)

	case "ask":
		question := strings.Join(args, " ")
		if question == "" {
			return usageError{"ask needs a question"}
		}
		ans, err := sess.Ask(ctx, question)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "answer: %s\nconfidence: %d/10\n", ans.Text, ans.Confidence)
		if len(ans.Missing) > 0 {
			fmt.Fprintf(out, "missing evidence: %s\n", strings.Join(ans.Missing, "; "))
		}
		return nil

	case "learn":
		question := strings.Join(args, " ")
		if question == "" {
			return usageError{"learn needs a question"}
		}
		inv, err := sess.Investigate(ctx, question)
		if err != nil {
			return err
		}
		for _, r := range inv.Rounds {
			fmt.Fprintf(out, "round %d: confidence %d", r.Round, r.Confidence)
			if len(r.Searches) > 0 {
				fmt.Fprintf(out, ", searched %d queries, %d new items", len(r.Searches), r.NewItems)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "final answer: %s\nfinal confidence: %d/10\n", inv.Final.Text, inv.Final.Confidence)
		return save(ctx, sess, memPath, out)

	case "report":
		question := strings.Join(args, " ")
		if question == "" {
			return usageError{"report needs a question"}
		}
		rep, _, err := sess.Report(ctx, question)
		if err != nil {
			return err
		}
		if err := rep.WriteMarkdown(out); err != nil {
			return err
		}
		return save(ctx, sess, memPath, out)

	case "chat":
		cs := &repl.Session{Sess: sess, MemoryPath: memPath}
		return cs.Run(ctx, os.Stdin, out)

	case "plan":
		items, err := sess.Plan(ctx, "")
		if err != nil {
			return err
		}
		if len(items) == 0 {
			fmt.Fprintln(out, "the agent has no response-planning knowledge yet; run train and learn first")
		}
		for _, it := range items {
			fmt.Fprintf(out, "- %s: %s\n", it.Name, it.Description)
		}
		return nil
	}
	return usageError{fmt.Sprintf("unknown command %q", cmd)}
}

func save(ctx context.Context, sess *session.Session, path string, out *os.File) error {
	if err := sess.SaveMemory(ctx, path); err != nil {
		return err
	}
	fmt.Fprintf(out, "saved knowledge memory to %s\n", path)
	return nil
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
