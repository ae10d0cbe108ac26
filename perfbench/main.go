// Command perfbench is the repository's training benchmark. It runs one
// seeded training workload through the public trainers for a fixed time,
// checks every model it trains, and prints the workload's metrics by name
// and unit. With -trace 1 it prints the per-layer metrics instead, measured
// from outside the program: a wrapper around the job's transport, the
// telemetry counters the program publishes, and direct calls into single
// layers after training. See README.md.
//
//	perfbench -workload hl-solve -seed 1 -seconds 30 -trace 0
//	perfbench compare old.txt new.txt
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/ppml-go/ppml/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced pass instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	// A hard ceiling well inside the time any caller waits for one run.
	ctx, cancel := context.WithTimeout(context.Background(), maxRunTime)
	defer cancel()
	rep, err := measure(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

const maxRunTime = 150 * time.Second

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// minJobs is the fewest timed jobs a run makes, however long they take, so
// that every run reports a median and quartiles (a traced run makes them in
// untraced and traced pairs).
const minJobs = 3

// maxDraws bounds the data draws one run cycles through.
const maxDraws = 256

// drawSeed is the seed of data draw j of a run. Jobs of one run train on
// different draws, so a run's medians average over inputs instead of
// depending on one draw's conditioning.
func drawSeed(seed int64, j int) int64 { return seed*maxDraws + int64(j) }

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"samples_per_s", "1/s"},
	{"converge_rounds", "rounds"},
	{"converge_s", "s"},
	{"accuracy", "frac"},
	{"wire_bytes", "B"},
	{"wire_msgs", "count"},
	{"peak_rss_mb", "MB"},
}

func (r *jobResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":         r.setup.Seconds(),
		"train_s":         r.train.Seconds(),
		"samples_per_s":   r.samplesPerSec,
		"converge_rounds": float64(r.convergeRounds),
		"converge_s":      r.converge.Seconds(),
		"accuracy":        r.accuracy,
		"wire_bytes":      float64(r.wireBytes),
		"wire_msgs":       float64(r.wireMsgs),
	}
}

// report is the result of one run.
type report struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     int                 `json:"trace"`
	Meta      experiments.RunMeta `json:"meta"`
	NProc     int                 `json:"nproc"`
	Seconds   float64             `json:"seconds"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	// FailedFrac is failed ÷ attempted jobs: a job fails when training
	// errors or any output check rejects its model.
	FailedFrac float64  `json:"failed_frac"`
	Failures   []string `json:"failures,omitempty"`
	// Hashes maps each data draw's seed to the model trained on it (strict
	// workloads), so two result sets of one seed can be compared bit for bit.
	Hashes  map[int64]string       `json:"model_hashes,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`

	defs []metricDef
}

// metricValue is one metric of a run: the median over the run's jobs and
// the quartiles around it.
type metricValue struct {
	summary
	Unit string `json:"unit"`
}

// measure runs workload w for budget and reports its metrics.
func measure(ctx context.Context, w workload, seed int64, budget time.Duration, traced bool, log io.Writer) (*report, error) {
	rep := &report{
		Workload: w.name, Seed: seed, Meta: experiments.CollectMeta(), NProc: runtime.NumCPU(),
		Seconds: budget.Seconds(), Hashes: map[int64]string{}, Metrics: map[string]metricValue{},
	}
	if traced {
		rep.Trace = 1
	}
	b := &bench{w: w, seed: seed, rep: rep, log: log}
	// Warm-up: caches fill and lazy set-up finishes before anything is
	// timed. Its model still goes through every check and pins draw 0.
	if _, err := b.job(ctx, 0, false); err != nil {
		return nil, err
	}
	values := map[string][]float64{}
	var ratios []float64 // traced ÷ untraced train time, per draw
	var longest time.Duration
	loopStart := time.Now()
	jobs := 0
	for i := 0; jobs < minJobs || time.Since(loopStart)+longest <= budget; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		draw := i % maxDraws
		plain, err := b.job(ctx, draw, false)
		if err != nil {
			return nil, err
		}
		jobs++
		if !traced {
			if plain != nil {
				for k, v := range plain.endToEnd() {
					values[k] = append(values[k], v)
				}
			}
			longest = max(longest, time.Since(t0))
			continue
		}
		tr, err := b.job(ctx, draw, true)
		if err != nil {
			return nil, err
		}
		jobs++
		if plain != nil && tr != nil {
			ratios = append(ratios, tr.train.Seconds()/plain.train.Seconds())
			for k, v := range tracedLayers(tr) {
				values[k] = append(values[k], v)
			}
		}
		longest = max(longest, time.Since(t0))
	}
	if traced {
		in, err := makeInputs(w, drawSeed(seed, 0))
		if err != nil {
			return nil, err
		}
		probes, err := probeLayers(w, in)
		if err != nil {
			return nil, err
		}
		for k, v := range probes {
			values[k] = []float64{v}
		}
		if len(ratios) > 0 {
			values["trace.overhead_frac"] = []float64{summarize(ratios).Median - 1}
		}
		rep.defs = perLayerMetrics
	} else {
		values["peak_rss_mb"] = []float64{peakRSSMB()}
		rep.defs = endToEndMetrics
	}
	for _, d := range rep.defs {
		rep.Metrics[d.name] = metricValue{summary: summarize(values[d.name]), Unit: d.unit}
	}
	if rep.Attempted > 0 {
		rep.FailedFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	return rep, nil
}

// bench is the state one run shares across its jobs.
type bench struct {
	w    workload
	seed int64
	rep  *report
	log  io.Writer
}

// job trains once on data draw draw and applies every output check: the
// job's own (accuracy floor, message count) and, on strict workloads, that a
// draw trained twice gives the bit-identical model. A job that fails, in
// training or in a check, is counted and returns no result; an error stops
// the run.
func (b *bench) job(ctx context.Context, draw int, traced bool) (*jobResult, error) {
	in, err := makeInputs(b.w, drawSeed(b.seed, draw))
	if err != nil {
		return nil, err
	}
	b.rep.Attempted++
	res, err := runJob(ctx, b.w, in, traced)
	if err == nil && b.w.strict() {
		if prev, ok := b.rep.Hashes[in.seed]; ok && prev != res.hash {
			err = fmt.Errorf("%w: %s draw %d trained model %s, earlier %s", errCheck, b.w.name, in.seed, res.hash, prev)
		} else {
			b.rep.Hashes[in.seed] = res.hash
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		b.rep.Failed++
		b.rep.Failures = append(b.rep.Failures, err.Error())
		fmt.Fprintf(b.log, "perfbench: job failed: %v\n", err)
		return nil, nil
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// write prints the human-readable table, the full record (one JSON line
// starting with {"perfbench":), and last the summary line the benchmark
// contract asks for.
func (r *report) write(out io.Writer) error {
	fmt.Fprintf(out, "workload %s  seed %d  trace %d  jobs %d  failed %d (failed_frac %.4f)  commit %s  %s  GOMAXPROCS %d  nproc %d\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.FailedFrac,
		r.Meta.Commit, r.Meta.GoVersion, r.Meta.GOMAXPROCS, r.NProc)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	fmt.Fprintf(out, "  %-34s %14s %-7s %14s %14s %4s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, d := range r.defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(out, "  %-34s %14.6g %-7s %14.6g %14.6g %4d\n", d.name, m.Median, m.Unit, m.Q1, m.Q3, m.N)
	}
	rec, err := json.Marshal(struct {
		Perfbench int `json:"perfbench"`
		*report
	}{1, r})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", rec)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		v := m.Median
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[name] = value{v, m.Unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", last)
	return err
}
