// Package report renders an agent investigation into the written report
// a human researcher would produce: the question, the conclusion with
// its confidence, the self-learning history, the supporting evidence
// with sources, and the size of the audit trail. This is the artifact
// the paper's "interactive research agent" ultimately exists to deliver
// — an investigation another researcher can check.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/agent"
	"repro/internal/facts"
	"repro/internal/memory"
)

// Report is a structured investigation report.
type Report struct {
	Agent       string
	Role        string
	Question    string
	Conclusion  string
	Confidence  int
	Rounds      []agent.Round
	Saturated   bool
	Evidence    []EvidenceItem
	TraceEvents int64
}

// EvidenceItem is one supporting fact with its provenance.
type EvidenceItem struct {
	Fact    string
	Sources []string
}

// Build assembles a report from an investigation, the agent that ran it
// and the number of events its session has recorded for audit (the
// session's last event ID). Evidence is the set of structured facts in
// the memory items most relevant to the question, each attributed to
// every source that stated it.
func Build(a *agent.Agent, inv agent.Investigation, events int64) Report {
	r := Report{
		Agent:       a.Role.Name,
		Role:        a.Role.Description,
		Question:    inv.Question,
		Conclusion:  inv.Final.Text,
		Confidence:  inv.Final.Confidence,
		Rounds:      inv.Rounds,
		Saturated:   inv.Saturated,
		TraceEvents: events,
	}
	r.Evidence = collectEvidence(a.Memory, inv.Question, 16)
	return r
}

// collectEvidence extracts attributed facts from the most relevant
// memory items.
func collectEvidence(store *memory.Store, question string, k int) []EvidenceItem {
	bySentence := map[string]map[string]bool{}
	for _, item := range store.Retrieve(question, k) {
		for _, f := range facts.Extract(item.Text) {
			s := f.Sentence()
			if bySentence[s] == nil {
				bySentence[s] = map[string]bool{}
			}
			bySentence[s][item.Source] = true
		}
	}
	sentences := make([]string, 0, len(bySentence))
	for s := range bySentence {
		sentences = append(sentences, s)
	}
	sort.Strings(sentences)
	out := make([]EvidenceItem, 0, len(sentences))
	for _, s := range sentences {
		srcs := make([]string, 0, len(bySentence[s]))
		for src := range bySentence[s] {
			srcs = append(srcs, src)
		}
		sort.Strings(srcs)
		out = append(out, EvidenceItem{Fact: s, Sources: srcs})
	}
	return out
}

// WriteMarkdown renders the report as markdown.
func (r Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Investigation report: %s\n\n", r.Question)
	fmt.Fprintf(&b, "*Prepared by %s — %s*\n\n", r.Agent, r.Role)
	fmt.Fprintf(&b, "## Conclusion\n\n%s\n\n", r.Conclusion)
	fmt.Fprintf(&b, "Final confidence: **%d/10**", r.Confidence)
	if r.Saturated {
		b.WriteString(" (the investigation saturated: no further sources were reachable)")
	}
	b.WriteString("\n\n## Self-learning history\n\n")
	b.WriteString("| round | confidence | follow-up searches | new knowledge |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, round := range r.Rounds {
		searches := "—"
		if len(round.Searches) > 0 {
			searches = strings.Join(round.Searches, "; ")
		}
		fmt.Fprintf(&b, "| %d | %d | %s | %d items |\n",
			round.Round, round.Confidence, searches, round.NewItems)
	}
	b.WriteString("\n## Supporting evidence\n\n")
	if len(r.Evidence) == 0 {
		b.WriteString("No structured evidence was available; the conclusion rests on general knowledge only.\n")
	}
	for _, e := range r.Evidence {
		fmt.Fprintf(&b, "- %s\n", e.Fact)
		for _, src := range e.Sources {
			fmt.Fprintf(&b, "  - source: %s\n", src)
		}
	}
	fmt.Fprintf(&b, "\n---\n%d trace events recorded for audit.\n", r.TraceEvents)
	_, err := io.WriteString(w, b.String())
	return err
}
