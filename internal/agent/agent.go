// Package agent implements the paper's primary contribution: the
// interactive research-agent architecture of Figure 1, with its four
// components —
//
//  1. Role definition: a role plus initial goals (§3.2 step 1).
//  2. Information retrieval: autonomous web search and reading via the
//     Auto-GPT loop (§3.2 step 2, internal/autogpt).
//  3. Knowledge memory: a persistent knowledge.json store loaded into
//     every prompt (§3.2 step 3, internal/memory).
//  4. Knowledge testing and self-learning: per-question confidence
//     assessment with iterative gap-directed retrieval until the agent is
//     confident or saturated (§3.2 step 4).
//
// The agent is model-agnostic: anything implementing llm.Model works,
// and everything the model sees travels through the prompt protocol.
package agent

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/autogpt"
	"repro/internal/llm"
	"repro/internal/memory"
	"repro/internal/prompt"
	"repro/internal/retrieval"
	"repro/internal/stream"
	"repro/internal/websim"
)

// Role defines who the agent is and what it initially sets out to learn.
type Role struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Goals       []string `json:"goals"`
}

// BobRole returns the role definition of agent Bob from §3.2/§4.1: an
// Internet researcher investigating solar superstorms.
func BobRole() Role {
	return Role{
		Name: "Agent Bob",
		Description: "An Internet researcher who searches for knowledge of solar superstorms " +
			"and network infrastructure, and investigates their impact on the Internet.",
		Goals: []string{
			"Understand solar superstorms and Coronal Mass Ejection, and principles of their formation and effects.",
			"Gain knowledge of past solar superstorm events and their damage and impact.",
			"Understand the current global large-scale network infrastructure equipment such as fiber optic cables, power supply systems, and data centers.",
		},
	}
}

// IncidentAnalystRole returns a role for investigating a specific
// historical incident (used by the non-solar examples).
func IncidentAnalystRole(incident string) Role {
	return Role{
		Name: "Agent Ada",
		Description: "An Internet incident analyst who investigates the causes, failure chains " +
			"and impacts of Internet disruption events.",
		Goals: []string{
			"Understand what happened during the " + incident + " and what caused it.",
			"Understand the failure chain and the lessons of the " + incident + ".",
		},
	}
}

// Config tunes the agent.
type Config struct {
	// ConfidenceThreshold is the paper's self-learning gate (default 7):
	// below it the agent keeps searching.
	ConfidenceThreshold int
	// MaxRounds bounds self-learning iterations per question (default 4).
	MaxRounds int
	// KnowledgeItems is how many memory items are loaded into each
	// prompt's KNOWLEDGE section (default 16).
	KnowledgeItems int
	// LearnResults is how many search results each self-learning query
	// reads (default 2).
	LearnResults int
	// RetrievalWorkers bounds how many web requests one self-learning
	// round keeps in flight: proposed searches fan out concurrently,
	// then the planned result pages fetch through the same pool. 0
	// selects the default width (min(GOMAXPROCS, 8)); 1 degenerates to
	// the fully sequential pipeline. Committed output — memory items,
	// events, answers — is byte-identical at every setting; only wall
	// time changes.
	RetrievalWorkers int
	// Runner configures the Auto-GPT training loop.
	Runner autogpt.Config
}

func (c Config) withDefaults() Config {
	if c.ConfidenceThreshold <= 0 {
		c.ConfidenceThreshold = 7
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 4
	}
	if c.KnowledgeItems <= 0 {
		c.KnowledgeItems = 16
	}
	if c.LearnResults <= 0 {
		c.LearnResults = 2
	}
	return c
}

// Agent is one interactive research agent.
type Agent struct {
	Role   Role
	Model  llm.Model
	Web    websim.Web
	Memory *memory.Store
	Config Config
	// Observer, when set, receives the agent's step events — its only
	// record of what it did: every Auto-GPT step during Train, every
	// search and fetch of a self-learning pass, and every
	// knowledge-testing round, partial answer and pass summary during
	// Investigate. Observation is passive — behaviour and output are
	// byte-identical with or without it.
	Observer stream.Observer
}

// New assembles an agent. A nil store gets a fresh default-weight memory.
func New(role Role, model llm.Model, web websim.Web, store *memory.Store, cfg Config) *Agent {
	if store == nil {
		store = memory.NewStore(memory.DefaultWeights)
	}
	return &Agent{Role: role, Model: model, Web: web, Memory: store, Config: cfg}
}

// Clone returns an agent with the same role, model and config, an
// independent snapshot of the memory, no observer, and the given web.
// Clones are the unit of parallelism in the eval harness: concurrent
// investigations must never share a memory store (writes would interleave
// nondeterministically) or an engine's counters, so each worker runs on a
// clone backed by its own websim fork. The model is shared — llm
// implementations are stateless by contract.
func (a *Agent) Clone(web websim.Web) *Agent {
	return &Agent{
		Role:   a.Role,
		Model:  a.Model,
		Web:    web,
		Memory: a.Memory.Clone(),
		Config: a.Config,
	}
}

// TrainReport summarizes initial goal-driven training.
type TrainReport struct {
	Goals       []autogpt.GoalReport `json:"goals"`
	MemoryItems int                  `json:"memory_items"`
}

// Train runs every role goal through the Auto-GPT loop, populating the
// knowledge memory (§3.2 steps 1-3).
func (a *Agent) Train(ctx context.Context) (TrainReport, error) {
	cfg := a.Config.withDefaults()
	rcfg := cfg.Runner
	if rcfg.RetrievalWorkers == 0 {
		// The agent-level retrieval width governs the training loop too
		// unless the runner config pins its own.
		rcfg.RetrievalWorkers = cfg.RetrievalWorkers
	}
	runner := &autogpt.Runner{
		Model:    a.Model,
		Web:      a.Web,
		Memory:   a.Memory,
		Config:   rcfg,
		Observer: a.Observer,
	}
	var report TrainReport
	for _, goal := range a.Role.Goals {
		gr, err := runner.RunGoal(ctx, a.roleText(), goal)
		if err != nil {
			return report, fmt.Errorf("agent: train goal %q: %w", goal, err)
		}
		report.Goals = append(report.Goals, gr)
	}
	report.MemoryItems = a.Memory.Len()
	// Seal the trained knowledge into an immutable base segment:
	// everything learned after training lands in the store's delta, and
	// every Clone from here on shares the segment by reference instead of
	// deep-copying the training corpus and its index.
	a.Memory.SealDelta()
	return report, nil
}

// Answer is the agent's response to one question.
type Answer struct {
	Text       string   `json:"text"`
	Verdict    string   `json:"verdict"`
	Confidence int      `json:"confidence"`
	Missing    []string `json:"missing"`
}

// Ask answers a question from current knowledge only (no self-learning).
func (a *Agent) Ask(ctx context.Context, question string) (Answer, error) {
	cfg := a.Config.withDefaults()
	return a.ask(ctx, a.Memory.KnowledgeText(question, cfg.KnowledgeItems), question)
}

// ask answers a question from the given knowledge text.
func (a *Agent) ask(ctx context.Context, knowledge, question string) (Answer, error) {
	p := prompt.Prompt{
		Task:      prompt.TaskAnswer,
		Role:      a.roleText(),
		Knowledge: knowledge,
		Question:  question,
	}
	out, err := llm.Complete(ctx, a.Model, p)
	if err != nil {
		return Answer{}, fmt.Errorf("agent: ask: %w", err)
	}
	reply, err := prompt.ParseAnswer(out)
	if err != nil {
		return Answer{}, fmt.Errorf("agent: parse answer: %w", err)
	}
	return Answer{Text: reply.Answer, Verdict: reply.Verdict, Confidence: reply.Confidence, Missing: reply.Missing}, nil
}

// ProposeSearches asks the model what to search to better answer the
// question (the paper's self-learning prompt).
func (a *Agent) ProposeSearches(ctx context.Context, question string) ([]string, error) {
	cfg := a.Config.withDefaults()
	return a.proposeSearches(ctx, a.Memory.KnowledgeText(question, cfg.KnowledgeItems), question)
}

// proposeSearches asks for the searches that would better answer the
// question given the knowledge text.
func (a *Agent) proposeSearches(ctx context.Context, knowledge, question string) ([]string, error) {
	p := prompt.Prompt{
		Task:      prompt.TaskSearches,
		Role:      a.roleText(),
		Knowledge: knowledge,
		Question:  question,
	}
	out, err := llm.Complete(ctx, a.Model, p)
	if err != nil {
		return nil, fmt.Errorf("agent: propose searches: %w", err)
	}
	reply, err := prompt.ParseSearches(out)
	if err != nil {
		return nil, fmt.Errorf("agent: parse searches: %w", err)
	}
	return reply.Queries, nil
}

// SelfLearn runs the given queries against the web and memorizes what it
// finds. It returns the number of new memory items.
//
// The pass is a three-phase pipeline (internal/retrieval): every query
// searches concurrently through a bounded worker pool, the result pages
// are planned so each distinct URL is fetched exactly once per pass —
// a URL surfaced by two queries used to be fetched twice and rejected
// by the content dedup only after the wasted fetch — and the fetched
// pages then commit to the memory store in canonical (query-order,
// rank-order) sequence, emitting one search event per query and one
// fetch event per memorized or failed page as they go. Because commit
// order is fixed, the memorized items and the events are byte-identical
// at any Config.RetrievalWorkers setting, including the sequential
// width 1.
//
// Transient search/fetch failures cost the query or page, not the
// pass; the next round can retry them. Cancellation drains the worker
// pool, commits nothing, and surfaces the context's error exactly once.
func (a *Agent) SelfLearn(ctx context.Context, queries []string) (int, error) {
	cfg := a.Config.withDefaults()
	workers := retrieval.Workers(cfg.RetrievalWorkers)
	searches, err := retrieval.SearchAll(ctx, a.Web, queries, cfg.LearnResults, workers)
	if err != nil {
		return 0, fmt.Errorf("agent: self-learn: %w", err)
	}
	plan := retrieval.BuildPlan(searches)
	pages, err := retrieval.FetchAll(ctx, a.Web, plan.URLs, workers)
	if err != nil {
		return 0, fmt.Errorf("agent: self-learn: %w", err)
	}
	// Commit phase: single-goroutine replay in canonical order. Every
	// event and memory add lands exactly where the sequential loop
	// would have put it.
	added := 0
	for qi, s := range searches {
		if s.Err != nil {
			// A transient search failure costs this query, not the whole
			// investigation; the next round can retry it.
			a.Observer.Emit(stream.Event{Type: stream.EventSearch, Query: s.Query, Err: s.Err.Error()})
			continue
		}
		a.Observer.Emit(stream.Event{Type: stream.EventSearch, Query: s.Query, Results: len(s.Results)})
		for ri := range s.Results {
			fi, claimed := plan.Claim(qi, ri)
			if !claimed {
				// Dedup hit: an earlier slot already fetched this URL, and
				// its content would be rejected by the store's content
				// hash — the sequential path produced no output for this
				// slot either, just a wasted fetch.
				continue
			}
			f := pages[fi]
			if f.Err != nil {
				// Access-gated pages (social without crawler, restricted
				// papers) are an expected dead end, not a failure.
				a.Observer.Emit(stream.Event{Type: stream.EventFetch, URL: f.URL, Query: s.Query, Err: f.Err.Error()})
				continue
			}
			if _, ok := a.Memory.Add(f.Page.Body, f.Page.URL, s.Query); ok {
				added++
				a.Observer.Emit(stream.Event{Type: stream.EventFetch, URL: f.Page.URL, Query: s.Query})
			}
		}
	}
	return added, nil
}

// Round records one iteration of the knowledge-testing loop.
type Round struct {
	Round      int      `json:"round"`
	Confidence int      `json:"confidence"`
	Verdict    string   `json:"verdict"`
	Searches   []string `json:"searches"`
	NewItems   int      `json:"new_items"`
}

// Investigation is the full record of answering one question with
// self-learning.
type Investigation struct {
	Question string  `json:"question"`
	Rounds   []Round `json:"rounds"`
	Final    Answer  `json:"final"`
	// Saturated is true when the loop stopped because no new knowledge
	// could be found, rather than because confidence passed the
	// threshold.
	Saturated bool `json:"saturated"`
}

// Investigate runs the knowledge testing + self-learning loop (§3.2 step
// 4): answer, check confidence against the threshold, and if below it,
// search for the missing evidence and repeat — until confident, out of
// rounds, or saturated (no new knowledge reachable).
//
// Both prompts of a round carry the same role, knowledge and question,
// so a round that can still continue sends its search proposal together
// with its answer prompt: against a remote model the round waits one
// round trip instead of two. The proposal is joined before it is used,
// and cancelled and joined when the round ends the loop, so nothing a
// round starts outlives it. Only this goroutine emits events, so output
// and events are those of the sequential loop.
func (a *Agent) Investigate(ctx context.Context, question string) (Investigation, error) {
	cfg := a.Config.withDefaults()
	inv := Investigation{Question: question}
	for round := 0; ; round++ {
		knowledge := a.Memory.KnowledgeText(question, cfg.KnowledgeItems)
		var next *proposal
		if round < cfg.MaxRounds {
			next = a.propose(ctx, knowledge, question)
		}
		ans, err := a.ask(ctx, knowledge, question)
		if err != nil {
			next.discard()
			return inv, err
		}
		rec := Round{Round: round, Confidence: ans.Confidence, Verdict: ans.Verdict}
		inv.Final = ans
		a.Observer.Emit(stream.Event{Type: stream.EventRound, Round: round, Confidence: ans.Confidence, Verdict: ans.Verdict})
		a.Observer.Emit(stream.Event{Type: stream.EventPartial, Round: round, Text: ans.Text})

		if ans.Confidence >= cfg.ConfidenceThreshold || round >= cfg.MaxRounds {
			next.discard()
			inv.Rounds = append(inv.Rounds, rec)
			return inv, nil
		}
		queries, err := next.wait()
		if err != nil {
			return inv, err
		}
		rec.Searches = queries
		if len(queries) == 0 {
			inv.Rounds = append(inv.Rounds, rec)
			inv.Saturated = true
			return inv, nil
		}
		added, err := a.SelfLearn(ctx, queries)
		if err != nil {
			return inv, err
		}
		a.Observer.Emit(stream.Event{Type: stream.EventLearn, Round: round, Queries: queries, NewItems: added})
		rec.NewItems = added
		inv.Rounds = append(inv.Rounds, rec)
		if added == 0 {
			// Fixed point: the web has nothing new for these queries.
			inv.Saturated = true
			return inv, nil
		}
	}
}

// proposal is a round's search proposal, sent on its own goroutine
// while the round's answer is awaited.
type proposal struct {
	cancel  context.CancelFunc
	done    chan struct{}
	queries []string
	err     error
}

// propose sends the search proposal for the knowledge text and
// question.
func (a *Agent) propose(ctx context.Context, knowledge, question string) *proposal {
	ctx, cancel := context.WithCancel(ctx)
	p := &proposal{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.queries, p.err = a.proposeSearches(ctx, knowledge, question)
	}()
	return p
}

// wait joins the proposal of a round that continues and returns its
// result. It does not cancel first: cancelling an HTTP/1.1 request
// closes its keep-alive connection, so the next round would dial again.
func (p *proposal) wait() ([]string, error) {
	<-p.done
	p.cancel()
	return p.queries, p.err
}

// discard cancels and joins the proposal of a round that ends the
// loop, so a slow discarded request (a retry honouring Retry-After,
// say) does not hold the answer. A nil proposal, from a round that
// sent none, is a no-op.
func (p *proposal) discard() {
	if p == nil {
		return
	}
	p.cancel()
	<-p.done
}

// Revisit re-opens a previously answered question: even when the agent
// is already confident, it re-runs the evidence-gap searches — or, when
// the model proposes none, searches the question text itself — so newly
// published material can correct stale memory. It returns the refreshed
// answer and the number of new knowledge items picked up. This is the
// long-term-robustness mechanism (§5): conclusions track a drifting
// world instead of fossilizing. The refresh searches run through the
// same pipelined SelfLearn pass as an investigation round, so a revisit
// costs one fan-out, not one round-trip per query.
func (a *Agent) Revisit(ctx context.Context, question string) (Answer, int, error) {
	queries, err := a.ProposeSearches(ctx, question)
	if err != nil {
		return Answer{}, 0, err
	}
	if len(queries) == 0 {
		queries = []string{question}
	}
	added, err := a.SelfLearn(ctx, queries)
	if err != nil {
		return Answer{}, added, err
	}
	ans, err := a.Ask(ctx, question)
	return ans, added, err
}

// PlanItem re-exports the prompt plan item for callers.
type PlanItem = prompt.PlanItem

// Plan asks the trained agent for a response plan (§4.3's "shutdown"
// strategy).
func (a *Agent) Plan(ctx context.Context) ([]PlanItem, error) {
	cfg := a.Config.withDefaults()
	p := prompt.Prompt{
		Task:      prompt.TaskPlan,
		Role:      a.roleText(),
		Knowledge: a.Memory.KnowledgeText("response plan mitigation strategy shutdown recovery", cfg.KnowledgeItems),
	}
	out, err := llm.Complete(ctx, a.Model, p)
	if err != nil {
		return nil, fmt.Errorf("agent: plan: %w", err)
	}
	reply, err := prompt.ParsePlan(out)
	if err != nil {
		return nil, fmt.Errorf("agent: parse plan: %w", err)
	}
	return reply.Items, nil
}

// PlanFor is Plan with a scenario hint that focuses knowledge retrieval,
// e.g. "submarine cable cut recovery".
func (a *Agent) PlanFor(ctx context.Context, scenario string) ([]PlanItem, error) {
	cfg := a.Config.withDefaults()
	p := prompt.Prompt{
		Task:      prompt.TaskPlan,
		Role:      a.roleText(),
		Knowledge: a.Memory.KnowledgeText(scenario+" response plan mitigation strategy", cfg.KnowledgeItems),
	}
	out, err := llm.Complete(ctx, a.Model, p)
	if err != nil {
		return nil, fmt.Errorf("agent: plan: %w", err)
	}
	reply, err := prompt.ParsePlan(out)
	if err != nil {
		return nil, fmt.Errorf("agent: parse plan: %w", err)
	}
	return reply.Items, nil
}

// GenerateQuestions asks the trained agent to propose research questions
// grounded in its knowledge (§5's first open question). The topic, when
// non-empty, filters the questions to those sharing vocabulary with it.
func (a *Agent) GenerateQuestions(ctx context.Context, topic string) ([]string, error) {
	cfg := a.Config.withDefaults()
	retrievalKey := topic
	if strings.TrimSpace(retrievalKey) == "" {
		retrievalKey = "vulnerability comparison infrastructure incidents"
	}
	p := prompt.Prompt{
		Task:      prompt.TaskQuestions,
		Role:      a.roleText(),
		Knowledge: a.Memory.KnowledgeText(retrievalKey, cfg.KnowledgeItems),
		Question:  topic,
	}
	out, err := llm.Complete(ctx, a.Model, p)
	if err != nil {
		return nil, fmt.Errorf("agent: generate questions: %w", err)
	}
	reply, err := prompt.ParseQuestions(out)
	if err != nil {
		return nil, fmt.Errorf("agent: parse questions: %w", err)
	}
	return reply.Questions, nil
}

// SawSource reports whether any memorized knowledge came from a URL
// containing the given fragment — used to verify the agent never read the
// restricted source paper (§4.1's methodology check).
func (a *Agent) SawSource(fragment string) bool {
	for _, src := range a.Memory.Sources() {
		if strings.Contains(src, fragment) {
			return true
		}
	}
	return false
}

func (a *Agent) roleText() string {
	return a.Role.Name + ": " + a.Role.Description
}
