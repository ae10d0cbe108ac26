package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	spec
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricPrinted runs each workload for one convergence window of
// rounds, untraced and traced, and checks that no job fails and that every
// metric BENCHMARK.json names is measured and printed, in the table and in
// the summary line, with its unit. Jobs this short, on this little data,
// cannot meet the workloads' tolerances and accuracy floors, so those two
// checks are off here; TestStrictChecksPass runs a whole workload with them.
// Per-layer metrics a workload does not exercise (staleness on strict
// rounds, say) have no measurement and print 0.
func TestEveryMetricPrinted(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, b.Workloads[i].Name, w.name)
		}
		w.rounds = w.window
		w.tol = math.Inf(1)
		w.accFloor = 0
		w.trainRows, w.testRows = min(w.trainRows, 400), min(w.testRows, 400)
		for trace, want := range [][]specMetric{b.EndToEnd, b.PerLayer} {
			rep, err := measure(context.Background(), w, 1, time.Millisecond, trace == 1, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if rep.Failed != 0 {
				t.Errorf("%s trace %d: %d of %d jobs failed: %v", w.name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			for _, m := range b.EndToEnd {
				if trace == 0 && rep.Metrics[m.Name].N == 0 {
					t.Errorf("%s: %s has no measurement", w.name, m.Name)
				}
			}
			var out bytes.Buffer
			if err := rep.write(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Attempted int `json:"attempted"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w.name, trace, err)
			}
			if last.Attempted < minJobs+1 {
				t.Errorf("%s trace %d: %d jobs attempted, want at least %d", w.name, trace, last.Attempted, minJobs+1)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(last.Metrics), len(want))
			}
			table := out.String()
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace %d: %s = %+v, want a value in %s", w.name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(table, " "+m.Name+" ") {
					t.Errorf("%s trace %d: %s missing from the table", w.name, trace, m.Name)
				}
			}
		}
	}
}

// TestStrictChecksPass runs the hl-solve workload as defined: every job
// converges within its rounds, and the closed-form message count and the
// bit-identical retrain hold, so no job fails.
func TestStrictChecksPass(t *testing.T) {
	w, err := findWorkload("hl-solve")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := measure(context.Background(), w, 7, time.Millisecond, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d of %d jobs failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	if got, want := rep.Metrics["wire_msgs"].Median, float64(expectedMessages(w.rounds)); got != want {
		t.Fatalf("wire_msgs %g, want %g", got, want)
	}
	if got := rep.Metrics["converge_rounds"].Median; got <= float64(w.window) || got >= float64(w.rounds) {
		t.Fatalf("converge_rounds %g, want strictly between %d and %d", got, w.window, w.rounds)
	}
}

func TestConvergeRound(t *testing.T) {
	dz := []float64{10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0.1}
	if got, ok := convergeRound(dz, 1.5, 10); !ok || got != 11 {
		t.Errorf("convergeRound = %d, %v; want 11, true", got, ok)
	}
	if got, ok := convergeRound(dz, 0.5, 10); ok {
		t.Errorf("convergeRound = %d, true; want not converged", got)
	}
	if got, ok := convergeRound(dz, 1.5, 5); !ok || got != 6 {
		t.Errorf("convergeRound = %d, %v; want 6, true", got, ok)
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which readers of the records use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.in, s, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "train_s", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		old, cur []float64
		want     string
	}{
		{[]float64{1, 1.01, 1.02}, []float64{1.01, 1.02, 1.03}, "same"},
		{[]float64{1, 1.01, 1.02}, []float64{1.2, 1.21, 1.22}, "worse"},
		{[]float64{1, 1.01, 1.02}, []float64{0.8, 0.81, 0.82}, "better"},
		{[]float64{1, 1.5, 2}, []float64{1.1, 1.6, 2.1}, "unresolved"},
		{[]float64{1, 1.5, 2}, []float64{0.1, 0.2, 0.3}, "better"},
		{[]float64{1, 1.5, 2}, []float64{3, 4.5, 6}, "worse"},
	} {
		o, n := summarize(c.old), summarize(c.cur)
		delta := (n.Median - o.Median) / o.Median
		if got := verdict(lower, c.old, c.cur, o, n, delta); got != c.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", c.old, c.cur, got, c.want)
		}
	}
}
