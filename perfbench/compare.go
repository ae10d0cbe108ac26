package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// specFile is the benchmark definition, relative to the checkout root.
const specFile = "BENCHMARK.json"

// spec is the part of BENCHMARK.json compare mode reads: which way each
// metric is better and by how much it may worsen.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain reads two result sets — files holding the output of any
// number of runs — and prints, per workload and metric, each side's median
// and quartiles over its runs and a verdict:
//
//	worse, better  the medians differ by more than the metric's bound
//	unresolved     a side's own spread is wider than the bound, and the
//	               runs of the two sides overlap
//	same           within the bound
//	MODEL CHANGED  a data draw trained on both sides gave another model
//
// Per-layer metrics have no bound and get no verdict. The bounds come from
// BENCHMARK.json in the working directory, the checkout root. Exits 1 when
// any metric is worse or a model changed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW")
		return 2
	}
	raw, err := os.ReadFile(specFile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %s: %v\n", specFile, err)
		return 2
	}
	old, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	cur, err := readResults(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	if compare(stdout, sp, old, cur) {
		return 1
	}
	return 0
}

// readResults collects the run records of one result set.
func readResults(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"perfbench":`) {
			continue
		}
		var r report
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no perfbench records", path)
	}
	return out, nil
}

// compare prints the comparison and reports whether anything regressed.
func compare(out io.Writer, sp spec, old, cur []report) (regressed bool) {
	type group struct {
		workload string
		trace    int
	}
	byGroup := func(rs []report) map[group][]report {
		m := map[group][]report{}
		for _, r := range rs {
			g := group{r.Workload, r.Trace}
			m[g] = append(m[g], r)
		}
		return m
	}
	oldG, curG := byGroup(old), byGroup(cur)
	var groups []group
	for g := range curG {
		if _, ok := oldG[g]; ok {
			groups = append(groups, g)
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].workload != groups[j].workload {
			return groups[i].workload < groups[j].workload
		}
		return groups[i].trace < groups[j].trace
	})
	for _, g := range groups {
		o, c := oldG[g], curG[g]
		fmt.Fprintf(out, "%s (trace %d): %d old runs, %d new runs; failed jobs %d → %d\n",
			g.workload, g.trace, len(o), len(c), failedJobs(o), failedJobs(c))
		for _, d := range modelChanges(o, c) {
			fmt.Fprintf(out, "  MODEL CHANGED %s\n", d)
			regressed = true
		}
		metrics := sp.EndToEnd
		if g.trace == 1 {
			metrics = sp.PerLayer
		}
		fmt.Fprintf(out, "  %-34s %12s %12s %12s  %12s %12s %12s  %8s  %s\n",
			"metric", "old q1", "old median", "old q3", "new q1", "new median", "new q3", "delta", "verdict")
		for _, m := range metrics {
			ov, cv := runValues(o, m.Name), runValues(c, m.Name)
			if len(ov) == 0 || len(cv) == 0 {
				fmt.Fprintf(out, "  %-34s missing\n", m.Name)
				continue
			}
			oldS, newS := summarize(ov), summarize(cv)
			delta := math.NaN()
			if oldS.Median != 0 {
				delta = (newS.Median - oldS.Median) / math.Abs(oldS.Median)
			}
			v := verdict(m, ov, cv, oldS, newS, delta)
			if v == "worse" {
				regressed = true
			}
			fmt.Fprintf(out, "  %-34s %12.5g %12.5g %12.5g  %12.5g %12.5g %12.5g  %+7.1f%%  %s\n",
				m.Name, oldS.Q1, oldS.Median, oldS.Q3, newS.Q1, newS.Median, newS.Q3, 100*delta, v)
		}
	}
	return regressed
}

// verdict judges one metric: worse or better when the medians differ by
// more than the bound; when either side's own spread is wider than the
// bound, worse or better only if every new run is worse or better than
// every old one, and unresolved otherwise; same otherwise.
func verdict(m specMetric, ov, cv []float64, oldS, newS summary, delta float64) string {
	if m.Bound == 0 {
		return ""
	}
	worse := delta // the share by which the new median is worse
	better := func(a, b float64) bool { return a < b }
	if m.Better == "higher" {
		worse = -delta
		better = func(a, b float64) bool { return a > b }
	}
	if math.IsNaN(worse) {
		return "unresolved"
	}
	if oldS.spread() > m.Bound || newS.spread() > m.Bound {
		switch {
		case allBeat(cv, ov, better):
			return "better"
		case allBeat(ov, cv, better):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case -worse > m.Bound:
		return "better"
	}
	return "same"
}

// allBeat reports whether every value of a beats every value of b.
func allBeat(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// runValues is one metric's per-run value (each run's median over its jobs).
func runValues(rs []report, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && m.N > 0 {
			v = append(v, m.Median)
		}
	}
	return v
}

func failedJobs(rs []report) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

// modelChanges lists the data draws both sides trained whose model hashes
// differ.
func modelChanges(old, cur []report) []string {
	seen := map[int64]string{}
	for _, r := range old {
		for s, h := range r.Hashes {
			seen[s] = h
		}
	}
	var out []string
	for _, r := range cur {
		for s, h := range r.Hashes {
			if prev, ok := seen[s]; ok && prev != h {
				out = append(out, fmt.Sprintf("draw seed %d: %s → %s", s, prev, h))
			}
		}
	}
	sort.Strings(out)
	return out
}
