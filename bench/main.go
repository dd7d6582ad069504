// Command bench is the repository's benchmark. It drives the agent
// service through its public /v1 HTTP API on four workloads, each
// against the server topology it needs, launched from the shipped
// websimd and llmstub binaries; a separate traced run builds the same
// topology in process and attributes the time to layers.
//
//	go run ./bench [-workload W] [-seed N] [-seconds S] [-runs R] [-trace 0|1] [-out FILE]
//	go run ./bench -compare base.json head.json
//
// The last line of standard output is one JSON object:
// {"correct","attempted","failed","metrics"}, with the end-to-end
// metrics of BENCHMARK.json (or, with -trace 1, its per-layer ones) as
// the median over the runs. bench/README.md describes the workloads,
// the metrics and the comparison rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (empty: all of BENCHMARK.json's)")
		seed     = flag.Uint64("seed", 1, "workload seed; run i of -runs uses seed+i")
		seconds  = flag.Float64("seconds", 10, "seconds each run measures")
		traceRun = flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics instead of end-to-end ones")
		runs     = flag.Int("runs", 1, "runs per workload")
		out      = flag.String("out", "", "write the environment, every run and the per-metric quartiles to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files: -compare base.json head.json")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark definition")
		binDir   = flag.String("bin", "", "directory with prebuilt websimd and llmstub binaries (default: build them)")
		spansDir = flag.String("spans", os.TempDir(), "traced run: directory the replay spans are written to")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	spec, err := loadSpec(*specPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		n, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if n > 0 {
			os.Exit(1)
		}
		return
	}
	if *traceRun != 0 && *traceRun != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *runs < 1 || *seconds <= 0 {
		fatalf("-runs and -seconds must be positive")
	}
	names, err := selectWorkloads(spec, *workload)
	if err != nil {
		fatalf("%v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		procs.stopAll()
		fmt.Fprintf(os.Stderr, "bench: %v: stopped every server\n", s)
		os.Exit(130)
	}()

	cfg := runConfig{
		seed: *seed, seconds: *seconds, runs: *runs, traced: *traceRun == 1,
		binDir: *binDir, spansDir: *spansDir, sizes: fullSizes,
	}
	doc, err := runAll(cfg, names, os.Stdout)
	procs.stopAll()
	if err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := doc.line(spec, cfg.traced)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(line)
}

func fatalf(format string, args ...any) {
	procs.stopAll()
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// selectWorkloads resolves -workload against BENCHMARK.json.
func selectWorkloads(spec *benchSpec, name string) ([]string, error) {
	var names []string
	for _, w := range spec.Workloads {
		if name == "" || name == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return names, nil
}

type runConfig struct {
	seed     uint64
	seconds  float64
	runs     int
	traced   bool
	binDir   string
	spansDir string
	sizes    sizes
}

// runAll runs every named workload cfg.runs times, printing each run's
// metrics as it finishes.
func runAll(cfg runConfig, names []string, w io.Writer) (*document, error) {
	work, err := os.MkdirTemp("", "bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	doc := &document{Env: environment(cfg)}
	websimd, llmstub := filepath.Join(cfg.binDir, "websimd"), filepath.Join(cfg.binDir, "llmstub")
	if !cfg.traced && cfg.binDir == "" {
		bin := filepath.Join(work, "bin")
		if err := buildServers(bin); err != nil {
			return nil, err
		}
		websimd, llmstub = filepath.Join(bin, "websimd"), filepath.Join(bin, "llmstub")
	}
	for r := range cfg.runs {
		for _, name := range names {
			run := workloadFunc(name)
			if run == nil {
				return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not implement", name)
			}
			dir, err := os.MkdirTemp(work, name+"-*")
			if err != nil {
				return nil, err
			}
			e := &runEnv{
				websimd: websimd, llmstub: llmstub, work: dir,
				seed: cfg.seed + uint64(r), seconds: cfg.seconds, sizes: cfg.sizes,
			}
			if cfg.traced {
				e.tr = newTracer()
				e.spansPath = filepath.Join(cfg.spansDir, "bench-spans-"+name+".json")
			}
			res, err := run(e)
			procs.stopAll()
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("%s (seed %d): %w", name, e.seed, err)
			}
			printResult(w, res)
			doc.Runs = append(doc.Runs, res)
		}
	}
	doc.Env.LoadAvgEnd = loadAvg()
	doc.summarize()
	return doc, nil
}

func workloadFunc(name string) func(*runEnv) (*result, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

func printResult(w io.Writer, r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d %s correct=%v attempted=%d failed=%d\n", r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// document is what -out writes and -compare reads.
type document struct {
	Env     envInfo                       `json:"env"`
	Runs    []*result                     `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

// envInfo records where and on what a set of runs was measured.
type envInfo struct {
	Nproc        int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	Commit       string   `json:"commit"`
	Seeds        []uint64 `json:"seeds"`
	Seconds      float64  `json:"seconds"`
	Traced       bool     `json:"traced"`
	Started      string   `json:"started"`
	LoadAvgStart string   `json:"loadavg_start"`
	LoadAvgEnd   string   `json:"loadavg_end"`
}

// summary is one metric over a set of runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	Values []float64 `json:"values"`
}

func environment(cfg runConfig) envInfo {
	env := envInfo{
		Nproc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit("."),
		Seconds:      cfg.seconds,
		Traced:       cfg.traced,
		Started:      time.Now().UTC().Format(time.RFC3339),
		LoadAvgStart: loadAvg(),
	}
	for r := range cfg.runs {
		env.Seeds = append(env.Seeds, cfg.seed+uint64(r))
	}
	return env
}

// summarize computes each workload × metric's median and quartiles
// over the runs.
func (d *document) summarize() {
	d.Summary = map[string]map[string]summary{}
	for _, r := range d.Runs {
		if d.Summary[r.Workload] == nil {
			d.Summary[r.Workload] = map[string]summary{}
		}
		for name, m := range r.Metrics {
			s := d.Summary[r.Workload][name]
			s.Unit = m.Unit
			s.Values = append(s.Values, m.Value)
			d.Summary[r.Workload][name] = s
		}
	}
	for _, ms := range d.Summary {
		for name, s := range ms {
			s.P25, s.Median, s.P75 = quartiles(s.Values)
			ms[name] = s
		}
	}
}

// line renders the final output line: the mode's metrics from
// BENCHMARK.json as medians over the runs. With more than one workload
// each metric name is prefixed by its workload.
func (d *document) line(spec *benchSpec, traced bool) (string, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range d.Runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for wl, ms := range d.Summary {
		for _, m := range spec.metrics(traced) {
			s, ok := ms[m.Name]
			if !ok {
				return "", fmt.Errorf("%s did not report %s", wl, m.Name)
			}
			if s.Unit != m.Unit {
				return "", fmt.Errorf("%s reports %s in %s, BENCHMARK.json says %s", wl, m.Name, s.Unit, m.Unit)
			}
			key := m.Name
			if len(d.Summary) > 1 {
				key = wl + "/" + m.Name
			}
			out.Metrics[key] = metric{Value: s.Median, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// loadAvg is /proc/loadavg's 1, 5 and 15 minute averages.
func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(data))
	return strings.Join(f[:min(3, len(f))], " ")
}

// gitCommit reads the checked-out commit from dir/.git without running
// git; outside a repository it returns "unknown".
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(dir, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
