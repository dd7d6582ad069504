// Incident-pipeline throughput suite: how fast the queue processor
// drains the simulator-generated batch at different worker counts, and
// what leader-follower dedup buys over investigating every incident
// individually. scripts/bench.sh runs TestIncidentPipelineReport with
// REPRO_INCIDENTS_OUT set to record the numbers as BENCH_incidents.json;
// under plain `go test` the same run checks that dedup did follower work
// and logs the dedup speedup, with no file output.
package repro

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/incident"
	"repro/internal/session"
	"repro/internal/websim"
)

// incidentBenchConfig adds a small simulated web latency so drain time
// is dominated by investigation work (the thing dedup avoids), not by
// scheduler wake jitter on the zero-latency sim.
var incidentBenchConfig = session.Config{
	Seed:       42,
	WebOptions: websim.Options{Latency: 200 * time.Microsecond},
}

// drainSimBatch files the fixed sim batch into a fresh store and drains
// it, returning the wall time and the processor for its counters.
func drainSimBatch(tb testing.TB, batch []incident.Filing, workers int, allLeaders bool) (time.Duration, *incident.Processor) {
	tb.Helper()
	st := incident.NewStore(incident.StoreConfig{})
	if _, err := incident.FileAll(st, batch); err != nil {
		tb.Fatal(err)
	}
	mgr := session.NewManager(session.ManagerConfig{Defaults: incidentBenchConfig})
	defer mgr.Shutdown()
	proc := incident.NewProcessor(st, mgr, incident.ProcessorConfig{
		Workers:    workers,
		Session:    incidentBenchConfig,
		AllLeaders: allLeaders,
	})
	start := time.Now()
	if err := proc.Drain(context.Background()); err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(start)
	ss := st.Stats()
	if int(ss.Resolved+ss.Escalated) != len(batch) {
		tb.Fatalf("drain left work: %+v", ss)
	}
	return elapsed, proc
}

// benchIncidents measures full sim-batch drains at a fixed worker count.
// ns/op is one whole batch; divide the batch size by it for
// incidents/sec.
func benchIncidents(b *testing.B, workers int, allLeaders bool) {
	batch := incident.SimBatch(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainSimBatch(b, batch, workers, allLeaders)
	}
}

func BenchmarkIncidentsWorkers1(b *testing.B) { benchIncidents(b, 1, false) }
func BenchmarkIncidentsWorkers4(b *testing.B) { benchIncidents(b, 4, false) }
func BenchmarkIncidentsWorkers8(b *testing.B) { benchIncidents(b, 8, false) }

// BenchmarkIncidentsAllLeaders is the dedup baseline: the same batch at
// 4 workers with every incident running its own full investigation.
func BenchmarkIncidentsAllLeaders(b *testing.B) { benchIncidents(b, 4, true) }

// incidentRunReport is one drain configuration in BENCH_incidents.json.
type incidentRunReport struct {
	Mode            string  `json:"mode"` // leader-follower | all-leader
	Workers         int     `json:"workers"`
	DrainMs         float64 `json:"drain_ms"`
	IncidentsPerSec float64 `json:"incidents_per_sec"`
	Leaders         int64   `json:"leaders"`
	Followers       int64   `json:"followers"`
	SavedRounds     int64   `json:"saved_rounds"`
}

// incidentReport is the JSON shape of BENCH_incidents.json.
type incidentReport struct {
	Suite         string              `json:"suite"`
	BatchSize     int                 `json:"batch_size"`
	IncidentTypes int                 `json:"incident_types"`
	Runs          []incidentRunReport `json:"runs"`
	// DedupSpeedup is leader-follower vs all-leader drain time at the
	// same worker count — the work the hint fan-out avoids.
	DedupSpeedup float64 `json:"dedup_speedup"`
}

// TestIncidentPipelineReport measures the pipeline: leader-follower
// dedup against investigating every incident as its own leader on the
// same batch and worker count. Only the dedup counts are asserted; the
// speedup is a wall-clock figure and is logged.
func TestIncidentPipelineReport(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pipeline measurement in -short mode")
	}
	batch := incident.SimBatch(42)
	types := map[string]bool{}
	for _, f := range batch {
		types[f.Type] = true
	}

	report := incidentReport{
		Suite:         "incidents",
		BatchSize:     len(batch),
		IncidentTypes: len(types),
	}
	run := func(mode string, workers int, allLeaders bool) time.Duration {
		elapsed, proc := drainSimBatch(t, batch, workers, allLeaders)
		ps := proc.Stats()
		report.Runs = append(report.Runs, incidentRunReport{
			Mode:            mode,
			Workers:         workers,
			DrainMs:         float64(elapsed.Microseconds()) / 1e3,
			IncidentsPerSec: float64(len(batch)) / elapsed.Seconds(),
			Leaders:         ps.Leaders,
			Followers:       ps.Followers,
			SavedRounds:     ps.SavedRounds,
		})
		return elapsed
	}

	for _, workers := range []int{1, 4} {
		run("leader-follower", workers, false)
	}
	dedup := run("leader-follower", 8, false)
	allLeader := run("all-leader", 8, true)
	report.DedupSpeedup = allLeader.Seconds() / dedup.Seconds()
	t.Logf("dedup %v vs all-leader %v", dedup, allLeader)

	dedupRun := report.Runs[2]
	if dedupRun.Followers == 0 || dedupRun.SavedRounds == 0 {
		t.Errorf("dedup run did no follower work: %+v", dedupRun)
	}

	if out := os.Getenv("REPRO_INCIDENTS_OUT"); out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}
	t.Logf("batch=%d types=%d dedup_speedup=%.2fx", report.BatchSize, report.IncidentTypes, report.DedupSpeedup)
}
