// Incident-pipeline report: leader-follower dedup on the simulator's
// incident batch. Drain throughput is measured by the incident-drain
// workload under bench/ (ops_per_s and the incident.drain_ms rung);
// this test checks only that dedup does follower work.
package repro

import (
	"context"
	"testing"

	"repro/internal/incident"
	"repro/internal/session"
)

// TestIncidentPipelineReport drains SimBatch(42) at 8 workers: every
// incident must end terminal, and the followers must answer from their
// leaders' learning, saving self-learning rounds.
func TestIncidentPipelineReport(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline report in -short mode")
	}
	batch := incident.SimBatch(42)
	st := incident.NewStore(incident.StoreConfig{})
	if _, err := incident.FileAll(st, batch); err != nil {
		t.Fatal(err)
	}
	cfg := session.Config{Seed: 42}
	mgr := session.NewManager(session.ManagerConfig{Defaults: cfg})
	defer mgr.Shutdown()
	proc := incident.NewProcessor(st, mgr, incident.ProcessorConfig{Workers: 8, Session: cfg})
	if err := proc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ss := st.Stats(); int(ss.Resolved+ss.Escalated) != len(batch) {
		t.Fatalf("drain left work: %+v", ss)
	}
	if ps := proc.Stats(); ps.Followers == 0 || ps.SavedRounds == 0 {
		t.Errorf("dedup did no follower work: %+v", ps)
	}
}
