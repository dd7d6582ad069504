package incident

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/parallel"
	"repro/internal/session"
)

// ProcessorConfig tunes the queue processor.
type ProcessorConfig struct {
	// Workers bounds how many incident groups investigate concurrently
	// (default 1). Groups are formed single-threaded before any
	// parallel work starts, so the resolution set is byte-identical at
	// every worker count.
	Workers int
	// MaxTurns bounds the leader's self-learning rounds (default 4). A
	// leader still below the confidence threshold after MaxTurns
	// escalates its whole group.
	MaxTurns int
	// Session is the template config for investigation sessions (model,
	// seed, web options). The processor overrides the role (an incident
	// analyst for the group's title) and the round bound per group.
	Session session.Config
}

// pollInterval is how often an idle Run loop re-scans the queue; a
// filing kicks the loop at once.
const pollInterval = 2 * time.Second

func (c ProcessorConfig) withDefaults() ProcessorConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxTurns <= 0 {
		c.MaxTurns = 4
	}
	return c
}

// ProcessorStats counts the processor's work — the leader/follower half
// of the `incidents` stats block. SavedRounds is the dedup economy:
// self-learning rounds followers did not run because their group's
// leader already had.
type ProcessorStats struct {
	Batches     int64 `json:"batches"`
	Leaders     int64 `json:"leaders"`
	Followers   int64 `json:"followers"`
	SavedRounds int64 `json:"saved_rounds"`
	Workers     int   `json:"workers"`
}

// Processor drains the incident queue: it claims open incidents
// atomically, groups same-type incidents, runs one leader investigation
// per group on a fresh session, bridges every step into the leader's
// event log, and fans the leader's resolution hint out to the group's
// followers as cheap ask-only runs on the same session.
type Processor struct {
	store *Store
	mgr   *session.Manager
	cfg   ProcessorConfig

	batches     atomic.Int64
	leaders     atomic.Int64
	followers   atomic.Int64
	savedRounds atomic.Int64

	kick chan struct{}
}

// NewProcessor builds a processor over the store and session runtime.
func NewProcessor(store *Store, mgr *session.Manager, cfg ProcessorConfig) *Processor {
	return &Processor{
		store: store,
		mgr:   mgr,
		cfg:   cfg.withDefaults(),
		kick:  make(chan struct{}, 1),
	}
}

// Stats returns the processor's counters.
func (p *Processor) Stats() ProcessorStats {
	return ProcessorStats{
		Batches:     p.batches.Load(),
		Leaders:     p.leaders.Load(),
		Followers:   p.followers.Load(),
		SavedRounds: p.savedRounds.Load(),
		Workers:     p.cfg.Workers,
	}
}

// Kick wakes a blocked Run loop; safe from any goroutine.
func (p *Processor) Kick() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// Run drains the queue whenever a filing kicks it (or the poll interval
// elapses) until ctx is cancelled. Incidents interrupted mid-flight are
// released back to open on the way out.
func (p *Processor) Run(ctx context.Context) {
	p.store.OnFile(p.Kick)
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		_ = p.Drain(ctx)
		select {
		case <-ctx.Done():
			return
		case <-p.kick:
		case <-tick.C:
		}
	}
}

// Drain processes open incidents until the queue is empty (or ctx is
// cancelled). Groups are formed and claimed single-threaded, then fan
// out over the worker pool; with the sim backend and a fixed store
// clock the resolution set is byte-identical at every worker count.
func (p *Processor) Drain(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		groups := p.claimBatch()
		if len(groups) == 0 {
			return nil
		}
		p.batches.Add(1)
		_, err := parallel.Map(ctx, p.cfg.Workers, groups, func(ctx context.Context, _ int, g []Incident) (struct{}, error) {
			return struct{}{}, p.processGroup(ctx, g)
		})
		if err != nil {
			// Cancellation can leave whole groups claimed but never
			// started; put every non-terminal member of the batch back to
			// open (Release is a no-op for open and terminal incidents).
			for _, g := range groups {
				p.releaseGroup(g)
			}
			return err
		}
	}
}

// claimBatch snapshots the open queue in severity-then-filing order,
// groups it by incident type (first member of each group — the highest
// severity, oldest — is the leader), and claims every member via the
// store's compare-and-swap. Incidents another processor claimed in the
// meantime simply drop out of their group.
func (p *Processor) claimBatch() [][]Incident {
	open := p.store.OpenQueue(0)
	var groups [][]Incident
	index := map[string]int{}
	for _, inc := range open {
		i, ok := index[inc.Type]
		if !ok {
			i = len(groups)
			index[inc.Type] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], inc)
	}
	claimed := groups[:0]
	for _, g := range groups {
		kept := g[:0]
		for _, inc := range g {
			if p.store.Claim(inc.ID) {
				kept = append(kept, inc)
			}
		}
		if len(kept) > 0 {
			claimed = append(claimed, kept)
		}
	}
	return claimed
}

// processGroup runs one group end to end: a fresh incident-analyst
// session, the leader investigation (with every step bridged into the
// leader's event log), then hint fan-out to followers. Context
// cancellation releases the whole group back to open; any other leader
// failure escalates it.
func (p *Processor) processGroup(ctx context.Context, g []Incident) error {
	leader := g[0]
	sid := "incident-" + leader.ID

	cfg := p.cfg.Session
	cfg.Role = agent.IncidentAnalystRole(leader.Title)
	cfg.AgentConfig.MaxRounds = p.cfg.MaxTurns
	threshold := cfg.AgentConfig.ConfidenceThreshold
	if threshold <= 0 {
		threshold = 7
	}

	s, err := p.mgr.Create(sid, cfg)
	if errors.Is(err, session.ErrExists) {
		// A released (reopened) incident re-claimed after an interrupted
		// run: discard the stale session and start clean.
		_ = p.mgr.Close(ctx, sid, true)
		s, err = p.mgr.Create(sid, cfg)
	}
	if err != nil {
		if ctx.Err() != nil {
			p.releaseGroup(g)
			return ctx.Err()
		}
		p.escalateGroup(g, fmt.Sprintf("leader session unavailable: %v", err))
		return nil
	}
	// The processor owns this session; drop it (no snapshot) when the
	// group is done. The incident record keeps the full event log.
	defer p.mgr.Close(context.Background(), sid, true) //nolint:errcheck

	for _, inc := range g {
		if err := p.store.Start(inc.ID, sid, leader.ID); err != nil {
			return err
		}
	}
	// Bridge every investigation step into the leader's event log. The
	// observer runs inside the session's serialized operation, so the
	// log order is deterministic.
	if err := s.Tee(ctx, p.store.Observer(leader.ID)); err != nil {
		p.releaseGroup(g)
		return err
	}

	// The leader runs the full paper loop: role-goal training populates
	// the knowledge memory, then the investigation self-learns toward
	// the confidence threshold. Followers skip all of it — that is the
	// dedup economy.
	if _, err := s.Train(ctx); err != nil {
		if ctx.Err() != nil {
			p.releaseGroup(g)
			return ctx.Err()
		}
		p.escalateGroup(g, fmt.Sprintf("leader training failed: %v", err))
		return nil
	}
	inv, err := s.Investigate(ctx, leader.Question)
	if err != nil {
		if ctx.Err() != nil {
			p.releaseGroup(g)
			return ctx.Err()
		}
		p.escalateGroup(g, fmt.Sprintf("leader investigation failed: %v", err))
		return nil
	}
	p.leaders.Add(1)
	turns := len(inv.Rounds)

	if inv.Final.Confidence < threshold {
		note := fmt.Sprintf("confidence %d below threshold %d after %d turns",
			inv.Final.Confidence, threshold, turns)
		if err := p.store.Close(leader.ID, Outcome{
			Status:     StatusEscalated,
			Confidence: inv.Final.Confidence,
			Verdict:    inv.Final.Verdict,
			Turns:      turns,
			Note:       note,
		}); err != nil && !errors.Is(err, ErrInvalidState) {
			return err
		}
		p.escalateGroup(g[1:], note)
		return nil
	}

	hint := inv.Final.Text
	if err := p.store.Close(leader.ID, Outcome{
		Status:     StatusResolved,
		Resolution: inv.Final.Text,
		Confidence: inv.Final.Confidence,
		Verdict:    inv.Final.Verdict,
		Turns:      turns,
		Hint:       hint,
	}); err != nil && !errors.Is(err, ErrInvalidState) {
		return err
	}

	// Fan the leader's resolution out to the followers: each answers
	// from the knowledge the leader already learned — one ask, zero
	// self-learning rounds. That skipped work is the dedup saving.
	for _, f := range g[1:] {
		p.store.SetHint(f.ID, hint)
		ans, err := s.Ask(ctx, followerQuestion(f, hint))
		if err != nil {
			if ctx.Err() != nil {
				p.releaseGroup(g[1:])
				return ctx.Err()
			}
			p.escalateGroup([]Incident{f}, fmt.Sprintf("follower ask failed: %v", err))
			continue
		}
		p.followers.Add(1)
		p.savedRounds.Add(int64(turns))
		if err := p.store.Close(f.ID, Outcome{
			Status:     StatusResolved,
			Resolution: ans.Text,
			Confidence: ans.Confidence,
			Verdict:    ans.Verdict,
			Hint:       hint,
		}); err != nil && !errors.Is(err, ErrInvalidState) {
			return err
		}
	}
	return nil
}

// followerQuestion frames a follower's question around the leader's
// resolution so the ask stays grounded in the group finding.
func followerQuestion(f Incident, hint string) string {
	return f.Question + " The group leader's investigation concluded: " + hint
}

// releaseGroup puts still-live group members back to open (terminal and
// already-open members are untouched by the store).
func (p *Processor) releaseGroup(g []Incident) {
	for _, inc := range g {
		p.store.Release(inc.ID)
	}
}

// escalateGroup escalates every still-live member of the group.
func (p *Processor) escalateGroup(g []Incident, note string) {
	for _, inc := range g {
		out := Outcome{Status: StatusEscalated, Note: note}
		if err := p.store.Close(inc.ID, out); errors.Is(err, ErrInvalidState) {
			// Not yet investigating (e.g. session creation failed while
			// members were only claimed): escalate via the manual path.
			_, _ = p.store.Transition(inc.ID, StatusEscalated, note)
		}
	}
}
