package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 50}, // overlaps the next one: the union counts once
		{Start: 10, End: 40},
		{Start: 60, End: 70},
		{Start: 90, End: 120}, // clipped to the parent's end
		{Start: 65, End: 68},  // inside another child
	}
	// Covered: [10,50] + [60,70] + [90,100] = 60.
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("self time = %v, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %v, want 100", got)
	}
}

func TestSpanTreeSelf(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client ask", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "gateway", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "handler", Start: 20, End: 80},
		{ID: 4, Parent: 3, Name: "model", Start: 30, End: 60},
	}
	tree := newSpanTree(spans)
	want := map[string]time.Duration{"client ask": 20, "gateway": 20, "handler": 30, "model": 30}
	var sum time.Duration
	for _, s := range spans {
		if got := tree.self(s); got != want[s.Name] {
			t.Errorf("self(%s) = %v, want %v", s.Name, got, want[s.Name])
		}
		sum += tree.self(s)
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %v, want the root's %v", sum, spans[0].dur())
	}
}

func TestRetrievalRounds(t *testing.T) {
	children := []span{
		{Name: "model", Start: 0, End: 10},
		{Name: "web", Start: 12, End: 20},
		{Name: "web", Start: 13, End: 25}, // parallel fetch
		{Name: "model", Start: 26, End: 30},
		{Name: "web", Start: 31, End: 35},
	}
	got := retrievalRounds(children)
	if len(got) != 2 || got[0] != 13 || got[1] != 4 {
		t.Errorf("rounds = %v, want [13 4]", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	layer := metricSpec{Name: "gateway.hop_self_p50_us", Unit: "us", Better: "lower"}
	ten := func(base, step float64) []float64 {
		var xs []float64
		for i := range 10 {
			xs = append(xs, base+step*float64(i%3))
		}
		return xs
	}
	for _, tc := range []struct {
		name       string
		m          metricSpec
		base, head []float64
		want       verdict
	}{
		{"same", lower, ten(1, 0.01), ten(1, 0.01), unchanged},
		{"faster in every pair", lower, ten(1, 0.01), ten(0.8, 0.01), improved},
		{"faster but too few pairs", lower, []float64{1, 1.01, 1.02}, []float64{0.8, 0.81, 0.82}, unchanged},
		{"slower beyond the bound", lower, ten(1, 0.01), ten(1.2, 0.01), regressed},
		{"slower within the bound", lower, ten(1, 0.01), ten(1.05, 0.01), unchanged},
		{"throughput drop", higher, ten(1000, 5), ten(800, 5), regressed},
		{"throughput gain", higher, ten(1000, 5), ten(1300, 5), improved},
		{"spread wider than the bound", lower, []float64{1, 1.5, 0.6, 1.4, 0.7}, []float64{1.1, 1.6, 0.7, 1.5, 0.8}, unresolved},
		{"wide spread but every head run better", lower, []float64{2, 3, 2.5}, []float64{1, 1.5, 1.2}, unchanged},
		{"setup within its absolute floor", setup, []float64{0.01, 0.01, 0.01}, []float64{0.05, 0.05, 0.05}, unchanged},
		{"setup beyond its floor", setup, []float64{0.2, 0.2, 0.2}, []float64{0.4, 0.4, 0.4}, regressed},
		{"per-layer metrics are not judged", layer, []float64{1}, []float64{2}, noBound},
	} {
		if got := judge(tc.m, tc.base, tc.head); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
		PerLayer: []metricSpec{{Name: "http.self_p50_us", Unit: "us", Better: "lower"}},
	}
	write := func(name string, p50 float64) string {
		d := &document{}
		for i := range 3 {
			d.Runs = append(d.Runs, &result{Workload: "ask-hot", Seed: uint64(i), Metrics: map[string]metric{
				"op_p50_ms":        {Value: p50 + 0.001*float64(i), Unit: "ms"},
				"http.self_p50_us": {Value: 4, Unit: "us"},
			}})
		}
		d.summarize()
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1)
	var out strings.Builder
	n, err := compareFiles(&out, spec, base, write("same.json", 1))
	if err != nil || n != 0 || !regexp.MustCompile(`ask-hot +op_p50_ms .* unchanged`).MatchString(out.String()) {
		t.Errorf("same runs: %d regressions, err %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "http.self_p50_us") {
		t.Errorf("per-layer row missing:\n%s", out.String())
	}
	out.Reset()
	n, err = compareFiles(&out, spec, base, write("slow.json", 1.5))
	if err != nil || n != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("slower head: %d regressions, err %v\n%s", n, err, out.String())
	}
}

// TestSpecMatchesBenchmark checks BENCHMARK.json against the benchmark:
// the workloads it names exist, and its metric names, units and bounds
// are well formed.
func TestSpecMatchesBenchmark(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloadFunc(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		e2e := i < len(spec.EndToEnd)
		switch {
		case !name.MatchString(m.Name) || seen[m.Name]:
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		case !unit.MatchString(m.Unit):
			t.Errorf("%s: malformed unit %q", m.Name, m.Unit)
		case m.Better != "lower" && m.Better != "higher":
			t.Errorf("%s: better = %q", m.Name, m.Better)
		case e2e && (m.Bound <= 0 || m.Bound > 0.25):
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		case !e2e && m.Bound != 0:
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] || spec.EndToEnd[0] != (metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}) {
		t.Error("BENCHMARK.json needs setup_s first, in s, lower is better, with the largest bound")
	}
}

// TestSmoke runs every workload for about a second at tiny sizes,
// untraced against freshly built binaries and traced in process, and
// checks that each passes its output checks and reports every metric
// BENCHMARK.json names. It asserts nothing about timing.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(procs.stopAll)
	names, err := selectWorkloads(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		cfg := runConfig{seed: 7, seconds: 1, runs: 1, traced: traced, spansDir: t.TempDir(), sizes: shortSizes}
		doc, err := runAll(cfg, names, io.Discard)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		for _, r := range doc.Runs {
			if !r.Correct {
				t.Errorf("%s traced=%v: incorrect run: %d of %d failed: %v", r.Workload, traced, r.Failed, r.Attempted, r.Errors)
			}
		}
		line, err := doc.line(spec, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		var out struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatalf("final line is not JSON: %v\n%s", err, line)
		}
		if want := len(names) * len(spec.metrics(traced)); len(out.Metrics) != want || out.Attempted < 1 {
			t.Errorf("traced=%v: final line has %d metrics and %d attempted, want %d metrics", traced, len(out.Metrics), out.Attempted, want)
		}
	}
}
