package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// verdict is the outcome of comparing one workload × metric between a
// base and a head set of runs.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
	noBound    verdict = "-" // per-layer metrics: shown for attribution, not judged
)

// setupFloor is the absolute worsening setup_s may show before it counts
// against its bound: set-up times are a fraction of a second, and
// process start-up jitter alone moves them by tens of milliseconds.
const setupFloor = 0.1

// minPairs is how many run pairs a gain needs before it is claimed.
const minPairs = 10

// judge applies the comparison rules (choosing-metrics §6.5 and §8):
//
//   - improved: the head wins at least nine tenths of the run pairs
//     (run i against run i; ties count for neither), there are at least
//     ten pairs, and the medians differ, in the head's favour, by more
//     than the base's interquartile distance;
//   - unresolved: otherwise, when either side's interquartile distance
//     is wider than the allowed worsening, unless every head run reads
//     better than every base run;
//   - regressed: the head's median is worse than the base's by more
//     than the allowed worsening, bound × base median (for setup_s, at
//     least setupFloor seconds);
//   - unchanged: everything else.
func judge(m metricSpec, base, head []float64) verdict {
	if m.Bound == 0 {
		return noBound
	}
	sign := 1.0 // +1: higher is worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := func(a, b float64) bool { return sign*(a-b) > 0 } // a worse than b
	b1, bm, b3 := quartiles(base)
	h1, hm, h3 := quartiles(head)
	allowed := m.Bound * math.Abs(bm)
	if m.Name == "setup_s" {
		allowed = math.Max(allowed, setupFloor)
	}

	pairs, wins := min(len(base), len(head)), 0
	for i := range pairs {
		if worse(base[i], head[i]) {
			wins++
		}
	}
	if pairs >= minPairs && float64(wins) >= 0.9*float64(pairs) && worse(bm, hm) && math.Abs(hm-bm) > b3-b1 {
		return improved
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !worse(b, h) {
				allBetter = false
			}
		}
	}
	if allBetter {
		return unchanged
	}
	if b3-b1 > allowed || h3-h1 > allowed {
		return unresolved
	}
	if worse(hm, bm) && math.Abs(hm-bm) > allowed {
		return regressed
	}
	return unchanged
}

// compareFiles prints one row per workload × metric found in both
// result files and returns how many rows regressed.
func compareFiles(w io.Writer, spec *benchSpec, basePath, headPath string) (int, error) {
	base, err := readDocument(basePath)
	if err != nil {
		return 0, err
	}
	head, err := readDocument(headPath)
	if err != nil {
		return 0, err
	}
	var wls []string
	for wl := range base.Summary {
		if head.Summary[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-15s %-38s %-6s %32s %32s %8s  %s\n", "workload", "metric", "unit", "base median [p25, p75]", "head median [p25, p75]", "change", "verdict")
	regressions := 0
	for _, wl := range wls {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			b, okB := base.Summary[wl][m.Name]
			h, okH := head.Summary[wl][m.Name]
			if !okB || !okH {
				continue
			}
			v := judge(m, b.Values, h.Values)
			if v == regressed {
				regressions++
			}
			change := "n/a"
			if b.Median != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(h.Median/b.Median-1))
			}
			fmt.Fprintf(w, "%-15s %-38s %-6s %32s %32s %8s  %s\n", wl, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", b.Median, b.P25, b.P75),
				fmt.Sprintf("%.4g [%.4g, %.4g]", h.Median, h.P25, h.P75), change, v)
		}
	}
	return regressions, nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Summary == nil {
		d.summarize()
	}
	return &d, nil
}
