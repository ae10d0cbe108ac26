package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"github.com/ppml-go/ppml/internal/consensus"
	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// learners is M, the cohort size of every workload. One process runs one
// training job at a time (a closed loop), so on a small machine the
// numbers measure the protocol and not the scheduler.
const learners = 4

// The paper's SVM slack penalty and ADMM penalty (Section VI), and the RBF
// kernel width of the vertical kernel workload.
const (
	paramC   = 50
	paramRho = 100
	rbfGamma = 0.1
)

type scheme int

const (
	horizontalLinear scheme = iota
	verticalLinear
	verticalKernel
)

// workload is one seeded training job the benchmark repeats. Every field is
// fixed here; the seed given on the command line only picks the data, the
// partition and the protocol's public randomness.
type workload struct {
	name   string
	scheme scheme
	// trainRows and testRows split one generated Higgs-like data set into
	// the training data and the held-out rows accuracy is measured on.
	trainRows, testRows int
	rounds              int
	// tol is the ‖z_{t+1} − z_t‖² level that counts as converged, as a
	// mean over the last window rounds.
	tol       float64
	window    int
	tcp       bool
	chunkRows int
	staleness int
	straggler time.Duration
	// accFloor is the held-out accuracy a model must reach for the job to
	// count as correct.
	accFloor float64
}

// strict reports whether the workload runs fixed-membership rounds, whose
// model is bit-reproducible and whose message count has a closed form.
func (w workload) strict() bool { return w.straggler == 0 }

// rowsPerRound is the number of training rows all learners solve over in one
// round: a full partition per learner, or one chunk per learner.
func (w workload) rowsPerRound(train int) int {
	switch {
	case w.chunkRows > 0:
		return learners * w.chunkRows
	case w.scheme == horizontalLinear:
		return train
	default: // vertical: every learner holds every row
		return learners * train
	}
}

// expectedMessages is the strict protocol's closed-form message count for R
// rounds: the m(m−1) pairwise seed exchange, a broadcast and a share per
// mapper per round, and one stop per mapper.
func expectedMessages(rounds int) int64 {
	m := int64(learners)
	return m*(m-1) + 2*m*int64(rounds) + m
}

// workloads is the benchmark's workload set; the "why" of each is in
// BENCHMARK.json and README.md.
//
// Each job runs several convergence windows, and each tolerance is met well
// inside it (the quartiles over jobs of ten runs: hl-solve rounds 24–31,
// vl-wire 47–49, hl-async 12–16, vk-setup 18–25), so converge_rounds can
// move either way without reaching the job's ends.
var workloads = []workload{
	// 100 training rows per learner keep a job at 0.2–0.6 s, so a run
	// covers 50 draws or more: a draw's solve time varies 3× with its
	// conditioning.
	{name: "hl-solve", scheme: horizontalLinear, trainRows: 400, testRows: 1600, rounds: 80, tol: 2e-3, window: 10, accFloor: 0.6},
	{name: "vl-wire", scheme: verticalLinear, trainRows: 10000, testRows: 10000, rounds: 100, tol: 0.3, window: 10, tcp: true, accFloor: 0.6},
	// An async job's pace varies from job to job (over 139 jobs, the time
	// to round 14 had a log standard deviation of 0.23, and one round in
	// about forty waits out the 100 ms straggler window), so a run needs
	// many short jobs. Chunk updates keep ‖Δz‖² near a floor of 0.005–0.01
	// after convergence; the tolerance sits above that floor, so the
	// crossing is sharp (rounds 13–15 in the quartiles over those jobs, 19
	// at the latest), and 30 rounds are six 5-round windows.
	{name: "hl-async", scheme: horizontalLinear, trainRows: 10000, testRows: 10000, rounds: 30, tol: 0.02, window: 5,
		chunkRows: 100, staleness: 2, straggler: 100 * time.Millisecond, accFloor: 0.65},
	// The kernel model is the weakest (held-out accuracy about 0.59), so
	// its held-out split is four times its training data: on 1,000 rows,
	// sampling alone takes single draws below the floor.
	{name: "vk-setup", scheme: verticalKernel, trainRows: 1000, testRows: 4000, rounds: 60, tol: 0.1, window: 10, accFloor: 0.55},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is the generated data of one benchmark run, made once from the
// seed before anything is timed.
type inputs struct {
	seed        int64
	train, test *dataset.Dataset
}

func makeInputs(w workload, seed int64) (*inputs, error) {
	all := dataset.SyntheticHiggs(w.trainRows+w.testRows, seed)
	idx := make([]int, all.Len())
	for i := range idx {
		idx[i] = i
	}
	train, test := all.Subset(idx[:w.trainRows]), all.Subset(idx[w.trainRows:])
	scaler := dataset.FitScaler(train)
	if err := scaler.Apply(train); err != nil {
		return nil, err
	}
	if err := scaler.Apply(test); err != nil {
		return nil, err
	}
	return &inputs{seed: seed, train: train, test: test}, nil
}

// jobResult is what one training job measured. Times are from the job's
// start: the partition call that precedes the Train call.
type jobResult struct {
	setup    time.Duration // start → first broadcast a mapper accepted
	train    time.Duration // first accepted broadcast → model returned
	converge time.Duration // start → end of round convergeRounds
	total    time.Duration

	rounds         int
	convergeRounds int
	samplesPerSec  float64
	accuracy       float64
	wireBytes      int64
	wireMsgs       int64
	hash           string

	// Traced jobs only.
	net  *probeNet
	snap *telemetry.Snapshot
}

// errCheck marks a job whose training succeeded but whose output failed a
// correctness check.
var errCheck = errors.New("output check failed")

// runJob trains one model on in and measures it. traced attaches the
// per-call network trace and a telemetry registry.
func runJob(ctx context.Context, w workload, in *inputs, traced bool) (*jobResult, error) {
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.NewRegistry()
	}
	var inner transport.Network = transport.NewInProc()
	if w.tcp {
		inner = transport.NewTCP()
	}
	start := time.Now()
	pn := newProbeNet(inner, start, traced)
	defer pn.Close()
	cfg := consensus.Config{
		C: paramC, Rho: paramRho, MaxIterations: w.rounds, Seed: in.seed,
		Distributed: true, Network: pn, Telemetry: reg,
		ChunkRows: w.chunkRows, Staleness: w.staleness, StragglerTimeout: w.straggler,
	}
	rng := rand.New(rand.NewSource(in.seed))
	var (
		model eval.Classifier
		h     *consensus.History
		err   error
	)
	var parts []*dataset.Dataset
	if w.scheme == horizontalLinear {
		if parts, _, err = partition.Horizontal(in.train, learners, rng); err == nil {
			model, h, err = consensus.TrainHorizontalLinear(ctx, parts, cfg)
		}
	} else {
		var cols [][]int
		if parts, cols, err = partition.Vertical(in.train, learners, rng); err == nil {
			if w.scheme == verticalKernel {
				cfg.Kernel = kernel.RBF{Gamma: rbfGamma}
				model, h, err = consensus.TrainVerticalKernel(ctx, parts, cols, cfg)
			} else {
				model, h, err = consensus.TrainVerticalLinear(ctx, parts, cols, cfg)
			}
		}
	}
	total := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: train: %w", w.name, err)
	}
	bcast, setup := pn.roundClock()
	if setup == 0 || len(bcast) == 0 {
		return nil, fmt.Errorf("%s: no broadcast reached a mapper", w.name)
	}
	r := &jobResult{
		setup:     setup,
		train:     total - setup,
		total:     total,
		rounds:    h.Iterations,
		wireBytes: h.Net.Bytes,
		wireMsgs:  h.Net.Messages,
	}
	var converged bool
	r.convergeRounds, converged = convergeRound(h.DeltaZSq, w.tol, w.window)
	// Round t ends when round t+1 is broadcast; the last round ends when the
	// model is returned.
	r.converge = total
	if r.convergeRounds < len(bcast) {
		r.converge = bcast[r.convergeRounds]
	}
	r.samplesPerSec = float64(w.rowsPerRound(in.train.Len())*r.rounds) / r.train.Seconds()
	if r.accuracy, err = eval.ClassifierAccuracy(model, in.test); err != nil {
		return nil, fmt.Errorf("%s: accuracy: %w", w.name, err)
	}
	if r.hash, err = modelHash(model); err != nil {
		return nil, err
	}
	if traced {
		r.net = pn
		r.snap = reg.Snapshot()
	}
	if !converged {
		return r, fmt.Errorf("%w: %s did not converge: the mean ‖Δz‖² over %d rounds never fell under %g in %d rounds",
			errCheck, w.name, w.window, w.tol, len(h.DeltaZSq))
	}
	if r.accuracy < w.accFloor {
		return r, fmt.Errorf("%w: %s accuracy %.4f below floor %.2f", errCheck, w.name, r.accuracy, w.accFloor)
	}
	if w.strict() {
		if want := expectedMessages(r.rounds); r.wireMsgs != want {
			return r, fmt.Errorf("%w: %s sent %d messages in %d rounds, closed form says %d",
				errCheck, w.name, r.wireMsgs, r.rounds, want)
		}
	}
	return r, nil
}

// convergeRound is the first round (counted from 1) at which the mean of
// ‖z_{t+1} − z_t‖² over the last window rounds is under tol. It reports
// false when that never happens; the job then fails its checks. The mean is
// over a window because single rounds dip without convergence: the second
// round of the vertical kernel scheme, and every async round that folds only
// stale shares, move z by almost nothing.
func convergeRound(deltaZSq []float64, tol float64, window int) (int, bool) {
	sum := 0.0
	for t, d := range deltaZSq {
		sum += d
		if t >= window {
			sum -= deltaZSq[t-window]
		}
		if t+1 >= window && sum/float64(window) < tol {
			return t + 1, true
		}
	}
	return 0, false
}

// modelHash is an FNV-64a digest of a model's parameters, bit for bit.
func modelHash(model eval.Classifier) (string, error) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	switch m := model.(type) {
	case *consensus.LinearModel:
		put(m.W...)
		put(m.B)
	case *consensus.KernelVerticalModel:
		for _, a := range m.Alpha {
			put(a...)
		}
		put(m.B)
	default:
		return "", fmt.Errorf("no hash for model type %T", model)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
