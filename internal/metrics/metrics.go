// Package metrics is the observability layer of the serving tier:
// lock-free fixed-bucket latency histograms, counters and sampled
// gauges, exposed in the Prometheus text format at GET /v1/metrics on
// every node (gateway and backend alike). The hot path touches only
// atomics — one bucket increment and one CAS-added sum per
// observation — so instrumenting a 40µs ask costs nanoseconds, and a
// scrape walks the registry without stopping any writer.
//
// The package deliberately reimplements the tiny subset of a metrics
// client the tier needs (no external dependency): named families,
// one-label instances, histogram/counter/gauge types, and a
// deterministic exposition order (family registration order, instance
// creation order) so scrapes are diffable in tests.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency histogram layout, in seconds:
// 25µs to 10s, roughly 2-2.5x per step. The low end resolves the cached
// ask path and the gateway hop, whose self times the traced ask-hot run
// of bench/ puts at tens of microseconds; the high end covers cold
// investigations and remote-model tails.
var DefBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Label is one name="value" pair on a metric instance.
type Label struct {
	Key   string
	Value string
}

// metric is one exposable instance inside a family.
type metric interface {
	// write emits the instance's sample lines. name is the family name,
	// labels the rendered label set ("" when unlabeled).
	write(w io.Writer, name, labels string)
}

// family groups every instance sharing one metric name.
type family struct {
	name string
	help string
	typ  string // counter | gauge | histogram

	mu      sync.Mutex
	order   []string
	byLabel map[string]metric
}

// Registry holds a node's metric families and renders them as
// Prometheus exposition text. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu     sync.Mutex
	order  []string
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// familyFor returns (creating if needed) the family with the given
// name, checking the type stays consistent.
func (r *Registry) familyFor(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabel: map[string]metric{}}
		r.byName[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: family %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// instance returns (creating via mk if needed) the family instance for
// the rendered label set.
func (f *family) instance(labels string, mk func() metric) metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.byLabel[labels]
	if !ok {
		m = mk()
		f.byLabel[labels] = m
		f.order = append(f.order, labels)
	}
	return m
}

// renderLabels renders a label set in the given order:
// `k1="v1",k2="v2"`. Values are escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing integer.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, float64(c.v.Load()))
}

// Counter returns the counter instance for the given labels, creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.familyFor(name, help, "counter")
	m := f.instance(renderLabels(labels), func() metric { return &Counter{} })
	return m.(*Counter)
}

// gaugeFunc samples fn at scrape time.
type gaugeFunc struct {
	fn func() float64
}

func (g *gaugeFunc) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, g.fn())
}

// GaugeFunc registers a gauge sampled at scrape time. Registering the
// same (name, labels) twice keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.familyFor(name, help, "gauge")
	f.instance(renderLabels(labels), func() metric { return &gaugeFunc{fn: fn} })
}

// Histogram is a fixed-bucket latency histogram. Buckets hold
// per-bucket (not cumulative) counts; exposition renders the standard
// cumulative le= series. All operations are atomic.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Histogram returns the histogram instance for the given labels,
// creating it with the given bucket bounds (nil means DefBuckets) on
// first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.familyFor(name, help, "histogram")
	m := f.instance(renderLabels(labels), func() metric { return newHistogram(bounds) })
	return m.(*Histogram)
}

// Observe records one value (seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the owning bucket — the usual histogram_quantile
// estimate. It returns 0 with no observations. Values in the +Inf
// bucket report the top finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if seen+n >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if n == 0 {
				return h.bounds[i]
			}
			return lo + (h.bounds[i]-lo)*((rank-seen)/n)
		}
		seen += n
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	var cum uint64
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, labels, sep, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	writeSample(w, name+"_sum", labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name+"", bracket(labels), h.count.Load())
}

func bracket(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func writeSample(w io.Writer, name, labels string, v float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, bracket(labels), formatFloat(v))
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm renders every family in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE headers once per family, then
// each instance's samples, in deterministic registration order.
func (r *Registry) WriteProm(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.byName[n]
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		order := append([]string(nil), f.order...)
		insts := make([]metric, len(order))
		for i, l := range order {
			insts[i] = f.byLabel[l]
		}
		f.mu.Unlock()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for i, m := range insts {
			m.write(w, f.name, order[i])
		}
	}
}

// ContentType is the Prometheus text exposition content type every
// /v1/metrics response carries.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteStats flattens a namespaced stats body (the GET /v1/stats
// blocks) into one gauge per numeric leaf, named
// <prefix>_<block>_<path...> with every segment sanitized to
// [a-z0-9_]. Booleans render as 0/1, strings and arrays are skipped.
// Keys walk in sorted order, so the output is deterministic. This is
// how every /v1/stats counter — cache hits, breaker opens, incident
// queue depth — reaches the Prometheus scrape without each subsystem
// registering gauges by hand.
func WriteStats(w io.Writer, prefix string, blocks any) {
	data, err := json.Marshal(blocks)
	if err != nil {
		return
	}
	var root map[string]any
	if err := json.Unmarshal(data, &root); err != nil {
		return
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch t := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(t))
			for k := range t {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(path+"_"+sanitize(k), t[k])
			}
		case float64:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", path, path, formatFloat(t))
		case bool:
			n := 0.0
			if t {
				n = 1
			}
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", path, path, formatFloat(n))
		}
	}
	walk(sanitize(prefix), root)
}

// sanitize maps s onto the metric-name alphabet [a-zA-Z0-9_].
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
