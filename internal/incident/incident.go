// Package incident is the agent control plane: the autonomous pipeline
// that turns the repo from a request/response agent service into a
// continuously loaded system. The paper's end state is an incident
// agent that investigates unattended — incidents are filed (over POST
// /v1/incidents or from the stormsim/bgpsim event streams), a queue
// processor claims them atomically, groups same-type incidents, runs
// one *leader* investigation through the existing session runtime, and
// fans the leader's resolution hint out to cheap *follower* runs that
// answer from the knowledge the leader already learned instead of
// re-investigating.
//
// Every incident carries a full lifecycle
//
//	open → claimed → investigating → resolved | escalated
//
// (with max-turns escalation when confidence never clears the
// threshold), an append-only event log fed by the session stream
// observer, and journal persistence alongside session snapshots: each
// filing, reopen and terminal transition appends one JSON line holding
// the changed incident, and a restart replays the journal and compacts
// it to one line per incident.
// Determinism is the acceptance bar inherited from the rest of the
// repo: with the sim backend and a fixed clock, a fixed incident batch
// produces a byte-identical resolution set at any worker count,
// because groups are formed before any parallel work starts and each
// group investigates on its own session over its own engine fork.
package incident

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Status is an incident's lifecycle state.
type Status string

// Lifecycle states. Resolved and escalated are terminal.
const (
	StatusOpen          Status = "open"
	StatusClaimed       Status = "claimed"
	StatusInvestigating Status = "investigating"
	StatusResolved      Status = "resolved"
	StatusEscalated     Status = "escalated"
)

// Terminal reports whether the status ends the lifecycle.
func (s Status) Terminal() bool {
	return s == StatusResolved || s == StatusEscalated
}

// Severities, in processing-priority order.
const (
	SevCritical = "critical"
	SevWarning  = "warning"
	SevInfo     = "info"
)

// sevRank orders severities for queue processing: critical first.
func sevRank(s string) int {
	switch s {
	case SevCritical:
		return 0
	case SevWarning:
		return 1
	default:
		return 2
	}
}

// Runtime errors.
var (
	// ErrNotFound is returned for unknown incident IDs.
	ErrNotFound = errors.New("incident: not found")
	// ErrInvalidState is returned for illegal lifecycle transitions
	// (mapped to 409 invalid_state by the HTTP layer).
	ErrInvalidState = errors.New("incident: invalid state")
	// ErrExists is returned when filing under an ID already taken
	// (mapped to 409 conflict by the HTTP layer).
	ErrExists = errors.New("incident: already filed")
)

// Filing is a request to open an incident: the body of POST
// /v1/incidents and the output of the stormsim/bgpsim event-source
// adapters. Type is the grouping key the leader-follower dedup runs
// on; Question is what the investigation answers (defaulted from the
// title when empty).
type Filing struct {
	// ID, when set, names the incident instead of the store's own
	// inc-%06d sequence. The gateway pre-assigns globally unique IDs
	// this way so filings landing on different backends never collide.
	ID       string `json:"id,omitempty"`
	Type     string `json:"type"`
	Severity string `json:"severity,omitempty"` // critical | warning | info (default warning)
	Title    string `json:"title,omitempty"`
	Question string `json:"question,omitempty"`
	Source   string `json:"source,omitempty"` // api | stormsim | bgpsim | ...
	Detail   string `json:"detail,omitempty"`
}

// validate normalizes a filing and rejects unusable ones.
func (f Filing) validate() (Filing, error) {
	if f.ID != "" && !validFilingID(f.ID) {
		return f, fmt.Errorf("invalid incident id %q (want 1-64 chars of [A-Za-z0-9_-])", f.ID)
	}
	f.Type = strings.TrimSpace(f.Type)
	if f.Type == "" {
		return f, fmt.Errorf("missing incident type")
	}
	if len(f.Type) > 64 {
		return f, fmt.Errorf("incident type longer than 64 characters")
	}
	switch f.Severity {
	case "":
		f.Severity = SevWarning
	case SevCritical, SevWarning, SevInfo:
	default:
		return f, fmt.Errorf("unknown severity %q (want critical, warning or info)", f.Severity)
	}
	if f.Title == "" {
		f.Title = f.Type + " incident"
	}
	if f.Question == "" {
		// The canonical incident-cause form: it parses as an
		// investigable question and grounds in the corpus whenever the
		// title names a known incident.
		f.Question = "What caused the " + f.Title + "?"
	}
	if f.Source == "" {
		f.Source = "api"
	}
	return f, nil
}

// validFilingID mirrors the session-ID charset: incident IDs embed
// into session names ("incident-<id>"), so they must stay legal there.
func validFilingID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Event is one entry of an incident's append-only event log: lifecycle
// transitions and the investigation steps bridged from the session
// stream observer.
type Event struct {
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	Kind string    `json:"kind"`
	Text string    `json:"text,omitempty"`
}

// Lifecycle event kinds (investigation steps reuse the stream event
// types: goal, thoughts, command, observation, round, partial, learn,
// answer, ...).
const (
	EvFiled         = "filed"
	EvClaimed       = "claimed"
	EvInvestigating = "investigating"
	EvHint          = "hint"
	EvResolved      = "resolved"
	EvEscalated     = "escalated"
	EvReopened      = "reopened"
)

// Incident is one filed incident and its full investigation record.
type Incident struct {
	ID       string `json:"id"`
	Type     string `json:"type"`
	Severity string `json:"severity"`
	Title    string `json:"title"`
	Question string `json:"question"`
	Source   string `json:"source,omitempty"`
	Detail   string `json:"detail,omitempty"`

	Status Status `json:"status"`
	// Leader is the incident whose investigation served this one's
	// group (its own ID for the leader itself). Empty until claimed
	// into a group.
	Leader string `json:"leader,omitempty"`
	// Hint is the leader's resolution hint handed to this follower.
	Hint string `json:"hint,omitempty"`
	// Session is the agent session the investigation ran on.
	Session string `json:"session,omitempty"`

	Resolution string `json:"resolution,omitempty"`
	Confidence int    `json:"confidence,omitempty"`
	Verdict    string `json:"verdict,omitempty"`
	// Turns is how many self-learning rounds the investigation ran (0
	// for followers — that is the dedup saving).
	Turns int `json:"turns,omitempty"`

	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
	Events  []Event   `json:"events,omitempty"`
}

// Outcome is how the processor closes out one incident.
type Outcome struct {
	Status     Status // StatusResolved or StatusEscalated
	Resolution string
	Confidence int
	Verdict    string
	Turns      int
	Hint       string
	Note       string // event-log detail for escalations
}
