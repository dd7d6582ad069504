// Package stream defines the typed events that record what an agent
// does, step by step. The paper's operator watches "how Bob draws
// conclusions ... to verify the sources of the knowledge" (§4.2), so
// every step — an Auto-GPT THOUGHTS / COMMAND / observation cycle, a
// knowledge-testing round, a self-learning search or page fetch — is
// recorded exactly once, as one Event. Streamed live, the same events
// turn a multi-step investigation from dead air into steps an operator
// sees as they happen, so perceived latency drops from full
// investigation time to time-to-first-step.
//
// The package is deliberately tiny: an Event record and a nil-safe
// Observer callback. Producers (internal/autogpt, internal/agent) emit
// through an Observer they do not own. The session runtime
// (internal/session) owns the per-session bounded log behind it: the
// same events are the live SSE stream, the audit trail served at
// GET /trace and the log a snapshot persists, and the incident pipeline
// tees them into incident logs. Observation is strictly passive — no
// producer ever changes behaviour based on whether an observer is
// attached, which is what keeps the simulated path byte-identical with
// recording on or off.
package stream

// Event types. A Terminal event ends the operation the stream is
// following; everything else is an intermediate step.
const (
	// EventOp marks the start of a session operation (train, ask,
	// investigate, report); Text carries the operation name and Arg the
	// question asked.
	EventOp = "op"
	// EventGoal marks the start of one Auto-GPT training goal.
	EventGoal = "goal"
	// EventThoughts carries the model's THOUGHTS text for one step.
	EventThoughts = "thoughts"
	// EventCommand is the command the model chose for one step.
	EventCommand = "command"
	// EventObservation is the execution result fed back into history.
	EventObservation = "observation"
	// EventRound reports one knowledge-testing round: confidence and
	// verdict after the round's answer.
	EventRound = "round"
	// EventPartial carries the round's (not yet final) answer text.
	EventPartial = "partial"
	// EventLearn reports one self-learning pass: the proposed queries
	// and how many new knowledge items they yielded.
	EventLearn = "learn"
	// EventSearch reports one self-learning search: Query, and Results
	// (the result count) or Err.
	EventSearch = "search"
	// EventFetch reports one self-learning page fetch: URL and the Query
	// that found it. Without Err the page was memorized.
	EventFetch = "fetch"
	// EventAnswer is the final answer of an ask/investigate/report
	// operation. Terminal.
	EventAnswer = "answer"
	// EventDone ends an operation that has no answer payload (train).
	// Terminal.
	EventDone = "done"
	// EventError ends an operation that failed, including context
	// cancellation mid-investigation. Terminal.
	EventError = "error"
)

// Event is one step of a running investigation. ID is assigned by the
// session event buffer (0 until published); all other fields are set by
// the producer and zero values are omitted on the wire.
type Event struct {
	ID         int64    `json:"id,omitempty"`
	Type       string   `json:"type"`
	Step       int      `json:"step,omitempty"`
	Round      int      `json:"round,omitempty"`
	Goal       string   `json:"goal,omitempty"`
	Command    string   `json:"command,omitempty"`
	Arg        string   `json:"arg,omitempty"`
	Text       string   `json:"text,omitempty"`
	Confidence int      `json:"confidence,omitempty"`
	Verdict    string   `json:"verdict,omitempty"`
	Queries    []string `json:"queries,omitempty"`
	NewItems   int      `json:"new_items,omitempty"`
	Query      string   `json:"query,omitempty"`
	Results    int      `json:"results,omitempty"`
	URL        string   `json:"url,omitempty"`
	Err        string   `json:"error,omitempty"`
	// Terminal marks the event that ends the operation this stream is
	// following; the SSE layer closes the response after sending it.
	Terminal bool `json:"terminal,omitempty"`
}

// Observer receives events as they happen. A nil Observer is valid and
// discards everything, so instrumentation is always optional and the
// un-observed hot path pays one nil check.
type Observer func(Event)

// Emit publishes e through o, tolerating a nil observer.
func (o Observer) Emit(e Event) {
	if o != nil {
		o(e)
	}
}

// Tee fans one event out to every given observer in order, skipping nil
// ones. It is the bridge primitive the incident pipeline uses to mirror
// a session's step events into an incident's event log while the
// session's own SSE buffer keeps receiving them unchanged. A Tee of
// zero or all-nil observers behaves like a nil Observer.
func Tee(obs ...Observer) Observer {
	// Compact away nils once so the hot emit path only ranges live ones.
	live := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e Event) {
		for _, o := range live {
			o(e)
		}
	}
}
