// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation as a testing.B benchmark, reporting
// the headline quantity of each experiment as a custom metric alongside
// the usual time/allocs. Run with:
//
//	go test -bench=. -benchmem
//
// The per-experiment mapping to the paper is in DESIGN.md §4 and the
// measured-vs-paper comparison in EXPERIMENTS.md.
package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/evalcache"
	"repro/internal/index"
	"repro/internal/llm/backend"
	"repro/internal/memory"
	"repro/internal/prompt"
	"repro/internal/quiz"
	"repro/internal/session"
	"repro/internal/websim"
	"repro/internal/world"
)

// BenchmarkE1ConclusionConsistency regenerates §4.2's headline table:
// baseline vs trained-agent consistency over the eight conclusions.
// Metrics: agent_consistent/8 (paper: 7/8), baseline_consistent/8.
func BenchmarkE1ConclusionConsistency(b *testing.B) {
	ctx := context.Background()
	var last eval.E1Result
	for i := 0; i < b.N; i++ {
		r, err := eval.RunE1(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.AgentScore), "agent_consistent/8")
	b.ReportMetric(float64(last.BaselineScore), "baseline_consistent/8")
}

// BenchmarkE2ConfidenceTrajectory regenerates §4.2's case-study series:
// confidence per self-learning round. Metrics: the cable question's
// start and end confidence (paper: 3 -> 8/9) and the data-center
// question's end confidence (paper: ~6).
func BenchmarkE2ConfidenceTrajectory(b *testing.B) {
	ctx := context.Background()
	var last []eval.E2Trajectory
	for i := 0; i < b.N; i++ {
		trs, err := eval.RunE2(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = trs
	}
	cable, dc := last[0], last[1]
	b.ReportMetric(float64(cable.Confidences[0]), "cable_conf_round0")
	b.ReportMetric(float64(cable.Confidences[len(cable.Confidences)-1]), "cable_conf_final")
	b.ReportMetric(float64(dc.Confidences[len(dc.Confidences)-1]), "dc_conf_final")
}

// BenchmarkE3PlanningOverlap regenerates §4.3: the agent's shutdown plan
// scored against the human reference. Metric: matched elements of 5
// (paper: predictive shutdown + redundancy utilization "highly
// consistent").
func BenchmarkE3PlanningOverlap(b *testing.B) {
	ctx := context.Background()
	var last eval.E3Result
	for i := 0; i < b.N; i++ {
		r, err := eval.RunE3(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Report.Matched), "plan_matched/5")
	b.ReportMetric(last.Report.MeanMatch, "plan_similarity")
}

// BenchmarkE4PipelineEndToEnd walks the Figure 1 architecture once per
// iteration: role definition -> autonomous retrieval -> memory ->
// testing loop. Metrics: memorized items and web queries per walk.
func BenchmarkE4PipelineEndToEnd(b *testing.B) {
	ctx := context.Background()
	var last eval.E4Result
	for i := 0; i < b.N; i++ {
		r, err := eval.RunE4(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.MemoryItems), "memory_items")
	b.ReportMetric(float64(last.WebStats.Queries), "web_queries")
	b.ReportMetric(float64(last.Investigated.Final.Confidence), "final_confidence")
}

// BenchmarkE5ThresholdSweep regenerates §3's threshold/effort tradeoff.
// Metrics: mean self-learning rounds at thresholds 3 and 9.
func BenchmarkE5ThresholdSweep(b *testing.B) {
	ctx := context.Background()
	var last []eval.E5Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunE5(ctx, eval.DefaultSetup(), []int{3, 9})
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	b.ReportMetric(last[0].MeanRounds, "rounds_at_th3")
	b.ReportMetric(last[1].MeanRounds, "rounds_at_th9")
	b.ReportMetric(float64(last[1].Consistent), "consistent_at_th9/8")
}

// BenchmarkE6SourceAblation regenerates the source-availability ablation
// (§5's crawler limitation). Metrics: consistency under degraded search
// vs with the social crawler.
func BenchmarkE6SourceAblation(b *testing.B) {
	ctx := context.Background()
	var last []eval.E6Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunE6(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	b.ReportMetric(float64(last[0].Consistent), "degraded_consistent/8")
	b.ReportMetric(float64(last[2].Consistent), "crawler_consistent/8")
}

// BenchmarkE7PlanValue scores response plans against simulated
// Carrington storms (the planning metric §4.3 says does not exist).
// Metrics: mean damage with no plan vs the agent's standard plan.
func BenchmarkE7PlanValue(b *testing.B) {
	ctx := context.Background()
	var last []eval.E7Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunE7(ctx, eval.DefaultSetup(), 10)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	b.ReportMetric(last[0].MeanDamage, "damage_no_plan")
	b.ReportMetric(last[1].MeanDamage, "damage_agent_plan")
	b.ReportMetric(last[3].MeanDamage, "damage_reference_plan")
}

// BenchmarkE8AdversarialMemory measures memory-poisoning outcomes (§5's
// security consideration). Metrics: 1 if the undefended model flipped,
// 1 if the conflict-aware model stayed safe.
func BenchmarkE8AdversarialMemory(b *testing.B) {
	ctx := context.Background()
	var last []eval.E8Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunE8(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	flipped, safe := 0.0, 0.0
	for _, r := range last {
		if r.Config == "poisoned, undefended" && r.Flipped {
			flipped = 1
		}
		if r.Config == "poisoned, conflict-aware" && !r.Flipped {
			safe = 1
		}
	}
	b.ReportMetric(flipped, "undefended_flipped")
	b.ReportMetric(safe, "defended_safe")
}

// BenchmarkE9EnsembleRobustness measures the multi-model ensemble (§5's
// multi-LLM direction) under poisoning. Metric: ensemble safety.
func BenchmarkE9EnsembleRobustness(b *testing.B) {
	ctx := context.Background()
	var last []eval.E9Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunE9(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		if strings.HasPrefix(r.Model, "ensemble") {
			safe := 0.0
			if r.Safe {
				safe = 1
			}
			b.ReportMetric(safe, "ensemble_safe")
		}
	}
}

// BenchmarkE10QuestionGeneration measures research-question generation
// quality (§5's first open question). Metrics: novel and answerable
// fractions of the generated set.
func BenchmarkE10QuestionGeneration(b *testing.B) {
	ctx := context.Background()
	var last eval.E10Result
	for i := 0; i < b.N; i++ {
		r, err := eval.RunE10(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last.Generated > 0 {
		b.ReportMetric(float64(last.Novel)/float64(last.Generated), "novel_fraction")
		b.ReportMetric(float64(last.Answerable)/float64(last.Generated), "answerable_fraction")
	}
}

// BenchmarkE11Multimodal measures the vision capability gate (§5's
// see-and-listen direction). Metrics: final confidence per capability.
func BenchmarkE11Multimodal(b *testing.B) {
	ctx := context.Background()
	var last []eval.E11Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunE11(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		b.ReportMetric(float64(r.Confidence), "conf_"+strings.ReplaceAll(r.Model, "-", "_"))
	}
}

// BenchmarkE12LongTermDrift measures self-correction under world drift
// (§5's long-term robustness). Metric: 1 if the revisit adopted the
// published revision.
func BenchmarkE12LongTermDrift(b *testing.B) {
	ctx := context.Background()
	var last []eval.E12Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunE12(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	adopted := 0.0
	if len(last) == 3 && last[2].CitedLat == 52 {
		adopted = 1
	}
	b.ReportMetric(adopted, "revision_adopted")
}

// BenchmarkA1MemoryRetrieval compares knowledge-memory retrieval
// weightings. Metric: consistency under the default blend.
func BenchmarkA1MemoryRetrieval(b *testing.B) {
	ctx := context.Background()
	var last []eval.A1Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunA1(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		if r.Weights == "rel+rec+imp" {
			b.ReportMetric(float64(r.Consistent), "default_consistent/8")
		}
	}
}

// BenchmarkA2ChainOfThought compares training with and without CoT query
// decomposition. Metric: extra searches CoT performs.
func BenchmarkA2ChainOfThought(b *testing.B) {
	ctx := context.Background()
	var last []eval.A2Row
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunA2(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	b.ReportMetric(float64(last[1].Searches-last[0].Searches), "cot_extra_searches")
	b.ReportMetric(float64(last[1].FactsSaved), "cot_facts_saved")
}

// BenchmarkA3SearchRanking compares BM25 against term frequency on the
// judged query set. Metric: MRR of each ranking.
func BenchmarkA3SearchRanking(b *testing.B) {
	var last []eval.A3Row
	for i := 0; i < b.N; i++ {
		last = eval.RunA3(eval.DefaultSetup())
	}
	for _, r := range last {
		b.ReportMetric(r.MRR, "mrr_"+r.Ranking)
	}
}

// BenchmarkE13Generalization grades the trained agent on the extended
// conclusion set — entities the source paper never discussed — showing
// the architecture's ability is not question-specific. Metric: consistent
// of 4.
func BenchmarkE13Generalization(b *testing.B) {
	ctx := context.Background()
	var consistent int
	for i := 0; i < b.N; i++ {
		bob, _, err := eval.TrainedBob(ctx, eval.DefaultSetup())
		if err != nil {
			b.Fatal(err)
		}
		results, err := quiz.RunSet(ctx, quiz.AgentInvestigator(bob), quiz.ExtendedConclusions())
		if err != nil {
			b.Fatal(err)
		}
		consistent, _ = quiz.Score(results)
	}
	b.ReportMetric(float64(consistent), "extended_consistent/4")
}

// BenchmarkE1ConclusionConsistencyParallel drives RunE1 from concurrent
// goroutines with a pool-sized per-conclusion fan-out, exercising the
// shared corpus/engine/trained-state caches under contention. Results
// are byte-identical to the serial benchmark for the same seed.
func BenchmarkE1ConclusionConsistencyParallel(b *testing.B) {
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s := eval.DefaultSetup()
			s.Workers = 0 // GOMAXPROCS-sized pool
			if _, err := eval.RunE1(ctx, s); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchSessionConfig is the stack the session-factory benchmarks build:
// seed-42 world, defaults elsewhere, so construction hits the shared
// engine cache exactly as websimd does.
var benchSessionConfig = session.Config{Seed: 42}

// --- microbenchmarks of the substrates ---

// BenchmarkCorpusGenerate measures synthetic-web generation.
func BenchmarkCorpusGenerate(b *testing.B) {
	w := world.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus.Generate(w, uint64(i))
	}
}

// BenchmarkSearchBM25 measures one ranked query against the full corpus.
func BenchmarkSearchBM25(b *testing.B) {
	eng := websim.NewEngine(corpus.Generate(world.Default(), 42), websim.Options{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(ctx, "solar storm submarine cable geomagnetic latitude", 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexSearch isolates the BM25 scorer: cold-idf forces the
// derived idf/length-norm tables to rebuild every iteration (a write
// between searches), warm-idf reuses them — the steady state of a
// trained agent querying a stable web.
func BenchmarkIndexSearch(b *testing.B) {
	docs := corpus.Generate(world.Default(), 42).Docs
	build := func() *index.Index {
		ix := index.New()
		for _, d := range docs {
			ix.Add(index.Doc{ID: d.ID, Title: d.Title, Body: d.Body})
		}
		return ix
	}
	const q = "solar storm submarine cable geomagnetic latitude"
	b.Run("cold-idf", func(b *testing.B) {
		ix := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Add(index.Doc{ID: "churn", Title: "churn", Body: "unrelated churn text"})
			if hits := ix.Search(q, 8); len(hits) == 0 {
				b.Fatal("no hits")
			}
		}
	})
	b.Run("warm-idf", func(b *testing.B) {
		ix := build()
		ix.Search(q, 8) // warm the derived tables
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if hits := ix.Search(q, 8); len(hits) == 0 {
				b.Fatal("no hits")
			}
		}
	})
}

// BenchmarkCorpusCache compares the memoized world build against a full
// regeneration, plus the cost of a copy-on-write engine fork — the three
// price points the eval harness now chooses between.
func BenchmarkCorpusCache(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		w := world.Default()
		for i := 0; i < b.N; i++ {
			corpus.Generate(w, 42)
		}
	})
	b.Run("hit", func(b *testing.B) {
		evalcache.Corpus(42) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalcache.Corpus(42)
		}
	})
	b.Run("engine-fork", func(b *testing.B) {
		evalcache.Engine(42, websim.Options{}) // prime the base build
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalcache.Engine(42, websim.Options{})
		}
	})
}

// BenchmarkAgentTrain measures full goal-driven training of Bob, built
// through the session factory (the same path the daemon takes); each
// iteration gets a fresh copy-on-write engine fork and memory store.
func BenchmarkAgentTrain(b *testing.B) {
	ctx := context.Background()
	evalcache.Engine(42, websim.Options{}) // prime the shared base build
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bob, _, err := session.NewAgent(benchSessionConfig)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bob.Train(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvestigate measures one full self-learning investigation on a
// trained agent (memory state is rebuilt each iteration through the
// session factory).
func BenchmarkInvestigate(b *testing.B) {
	ctx := context.Background()
	question := quiz.Conclusions()[0].Question
	evalcache.Engine(42, websim.Options{}) // prime the shared base build
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bob, _, err := session.NewAgent(benchSessionConfig)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bob.Train(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := bob.Investigate(ctx, question); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLLMComplete measures one knowledge-conditioned completion of
// the default sim backend, resolved by name through the registry.
func BenchmarkLLMComplete(b *testing.B) {
	m, err := backend.New("sim")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	store := memory.NewStore(memory.DefaultWeights)
	for _, d := range corpus.Generate(world.Default(), 42).Docs {
		store.Add(d.Body, d.URL, "bench")
	}
	p := prompt.Prompt{
		Task:      prompt.TaskAnswer,
		Knowledge: store.KnowledgeText("cable latitude", 16),
		Question:  quiz.Conclusions()[0].Question,
	}.Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Complete(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryRetrieve measures blended retrieval over a full store.
func BenchmarkMemoryRetrieve(b *testing.B) {
	store := memory.NewStore(memory.DefaultWeights)
	for _, d := range corpus.Generate(world.Default(), 42).Docs {
		store.Add(d.Body, d.URL, "bench")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Retrieve("solar storm cable geomagnetic latitude data center", 16)
	}
}
