package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/ppml-go/ppml/internal/fixedpoint"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/securesum"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// perLayerMetrics are printed by the traced pass. README.md maps each to the
// end-to-end metric it should move and the workload it should move it on.
var perLayerMetrics = []metricDef{
	{"mapreduce.round_ms.p50", "ms"},
	{"mapreduce.round_ms.p90", "ms"},
	{"mapreduce.mapper_compute_ms.p50", "ms"},
	{"mapreduce.mapper_compute_ms.p90", "ms"},
	{"mapreduce.straggler_gap_ms.p50", "ms"},
	{"mapreduce.straggler_gap_ms.p90", "ms"},
	{"mapreduce.reducer_fold_ms.p50", "ms"},
	{"mapreduce.setup_exchange_ms", "ms"},
	{"mapreduce.demoted_frac", "frac"},
	{"mapreduce.mean_staleness", "rounds"},
	{"qp.solves", "count"},
	{"qp.iters_per_solve", "count"},
	{"dataset.prefetch_hit_frac", "frac"},
	{"transport.send_ms", "ms"},
	{"transport.recv_wait_ms.reducer", "ms"},
	{"transport.recv_wait_ms.mapper", "ms"},
	{"transport.bytes_per_round", "B"},
	{"transport.msgs_per_round", "count"},
	{"securesum.round_share_us", "us"},
	{"fixedpoint.decode_add_us", "us"},
	{"linalg.matmult_ms", "ms"},
	{"kernel.gram_ms", "ms"},
	{"linalg.cholesky_ms", "ms"},
	{"linalg.cholesky_solve_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedLayers derives one traced job's per-layer metrics from its network
// trace and its telemetry snapshot.
func tracedLayers(r *jobResult) map[string]float64 {
	p := r.net
	bcast, setupEnd := p.roundClock()
	p.mu.Lock()
	events := append([]netEvent(nil), p.events...)
	p.mu.Unlock()
	rounds := len(bcast)
	out := map[string]float64{}

	// Round clock: round t lasts from its broadcast to the next one, the
	// last round until the model is returned.
	var roundMS []float64
	for t := range bcast {
		end := r.total
		if t+1 < rounds {
			end = bcast[t+1]
		}
		roundMS = append(roundMS, ms(end-bcast[t]))
	}
	out["mapreduce.round_ms.p50"] = percentile(roundMS, 50)
	out["mapreduce.round_ms.p90"] = percentile(roundMS, 90)

	type key struct {
		node  int
		round int32
	}
	bcastIn := map[key]time.Duration{}  // broadcast accepted by a mapper
	shareOut := map[key]time.Duration{} // share send started by a mapper
	type span struct{ first, last time.Duration }
	sharesIn := map[int32]*span{} // shares accepted by the reducer, per round
	roster := map[int32]int{}     // live count of the round's last roster declaration
	var sendMS []float64
	var recvReducer, recvMapper time.Duration
	var bytes, msgs int
	firstSeed := time.Duration(-1)
	for _, e := range events {
		switch e.op {
		case opSend:
			sendMS = append(sendMS, ms(e.dur))
			bytes += e.bytes
			msgs++
			start := e.at - e.dur
			switch {
			case e.kind == securesum.KindSeed && (firstSeed < 0 || start < firstSeed):
				firstSeed = start
			case e.kind == securesum.KindShare && e.node != reducerNode:
				k := key{e.node, e.round}
				if _, ok := shareOut[k]; !ok {
					shareOut[k] = start
				}
			case e.kind == mapreduce.KindRoster && e.node == reducerNode:
				roster[e.round] = e.roster
			}
		case opRecv:
			if e.node == reducerNode {
				recvReducer += e.dur
			} else {
				recvMapper += e.dur
			}
			switch {
			case e.kind == mapreduce.KindBroadcast && e.node != reducerNode:
				k := key{e.node, e.round}
				if _, ok := bcastIn[k]; !ok {
					bcastIn[k] = e.at
				}
			case e.kind == securesum.KindShare && e.node == reducerNode:
				s := sharesIn[e.round]
				if s == nil {
					sharesIn[e.round] = &span{e.at, e.at}
				} else {
					s.last = e.at
				}
			}
		}
	}
	var computeMS []float64
	for k, in := range bcastIn {
		if sent, ok := shareOut[k]; ok && sent >= in {
			computeMS = append(computeMS, ms(sent-in))
		}
	}
	out["mapreduce.mapper_compute_ms.p50"] = percentile(computeMS, 50)
	out["mapreduce.mapper_compute_ms.p90"] = percentile(computeMS, 90)

	var gapMS, foldMS []float64
	for t, s := range sharesIn {
		gapMS = append(gapMS, ms(s.last-s.first))
		if next := int(t) + 1; next < rounds && bcast[next] >= s.last {
			foldMS = append(foldMS, ms(bcast[next]-s.last))
		}
	}
	out["mapreduce.straggler_gap_ms.p50"] = percentile(gapMS, 50)
	out["mapreduce.straggler_gap_ms.p90"] = percentile(gapMS, 90)
	out["mapreduce.reducer_fold_ms.p50"] = percentile(foldMS, 50)
	if firstSeed >= 0 && setupEnd > firstSeed {
		out["mapreduce.setup_exchange_ms"] = ms(setupEnd - firstSeed)
	}
	// Strict rounds declare no roster: every mapper is in every round.
	if len(roster) > 0 && rounds > 0 {
		live := 0
		for t := 0; t < rounds; t++ {
			n, ok := roster[int32(t)]
			if !ok {
				n = learners
			}
			live += n
		}
		out["mapreduce.demoted_frac"] = 1 - float64(live)/float64(rounds*learners)
	}

	out["transport.send_ms"] = percentile(sendMS, 50)
	if rounds > 0 {
		out["transport.recv_wait_ms.reducer"] = ms(recvReducer) / float64(rounds)
		out["transport.recv_wait_ms.mapper"] = ms(recvMapper) / float64(rounds*learners)
		out["transport.bytes_per_round"] = float64(bytes) / float64(rounds)
		out["transport.msgs_per_round"] = float64(msgs) / float64(rounds)
	}

	s := r.snap
	if solves := s.CounterTotal("ppml_qp_solves_total"); solves > 0 {
		out["qp.solves"] = float64(solves)
		sum, n := histogramTotals(s, "ppml_qp_iterations")
		if n > 0 {
			out["qp.iters_per_solve"] = sum / float64(n)
		}
	}
	if sum, n := histogramTotals(s, "ppml_round_staleness"); n > 0 {
		out["mapreduce.mean_staleness"] = sum / float64(n)
	}
	hits := s.CounterTotal("ppml_prefetch_hits_total")
	if total := hits + s.CounterTotal("ppml_prefetch_misses_total"); total > 0 {
		out["dataset.prefetch_hit_frac"] = float64(hits) / float64(total)
	}
	return out
}

// histogramTotals sums the observations and their count over every series
// of the named histogram.
func histogramTotals(s *telemetry.Snapshot, name string) (sum float64, n uint64) {
	for _, h := range s.Histograms {
		if h.Name == name {
			sum += h.Sum
			n += h.Count
		}
	}
	return sum, n
}

// probeRows caps the rows of a layer probe's input, so that the N×N outputs
// of the Gram and Cholesky probes stay at 32 MB.
const probeRows = 2000

// probeLayers times single layers by calling them directly, after training
// and in the same process, at the shapes of workload w: the contribution
// dimension and cohort of its rounds, and the local matrix of its first
// learner on draw 0 (a full partition, or one chunk when the workload trains
// on chunks), with rows capped at probeRows.
func probeLayers(w workload, in *inputs) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(in.seed))
	var x *linalg.Matrix
	var dim int
	if w.scheme == horizontalLinear {
		parts, _, err := partition.Horizontal(in.train, learners, rng)
		if err != nil {
			return nil, err
		}
		x = parts[0].X
		dim = x.Cols + 1
		if w.chunkRows > 0 {
			x = rowsOf(x, w.chunkRows)
		}
	} else {
		parts, _, err := partition.Vertical(in.train, learners, rng)
		if err != nil {
			return nil, err
		}
		x = parts[0].X
		dim = x.Rows
	}
	x = rowsOf(x, probeRows)
	out := map[string]float64{}

	share, err := probeRoundShare(dim)
	if err != nil {
		return nil, err
	}
	out["securesum.round_share_us"] = share
	fold, err := probeFold(dim)
	if err != nil {
		return nil, err
	}
	out["fixedpoint.decode_add_us"] = fold

	// The matrix product the scheme's mapper builds at set-up: the dual
	// Hessian X·Xᵀ of a horizontal learner, the ridge matrix XᵀX of a
	// vertical one.
	a := x
	if w.scheme != horizontalLinear {
		a = x.T()
	}
	var mmErr error
	out["linalg.matmult_ms"] = ms(timeCall(func() {
		_, mmErr = linalg.MatMulT(a, a)
	}))
	if mmErr != nil {
		return nil, mmErr
	}

	// The vertical kernel learner's set-up and per-round solve: K = Gram,
	// factor I + ρK, solve against one vector.
	var gram *linalg.Matrix
	out["kernel.gram_ms"] = ms(timeCall(func() { gram = kernel.GramMatrix(kernel.RBF{Gamma: rbfGamma}, x) }))
	reg := gram.Clone()
	reg.Scale(paramRho)
	if err := reg.AddScaledIdentity(1); err != nil {
		return nil, err
	}
	var ch *linalg.Cholesky
	var chErr error
	out["linalg.cholesky_ms"] = ms(timeCall(func() { ch, chErr = linalg.FactorizeCholesky(reg) }))
	if chErr != nil {
		return nil, fmt.Errorf("cholesky probe: %w", chErr)
	}
	b := make([]float64, x.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	dst := make([]float64, x.Rows)
	out["linalg.cholesky_solve_ms"] = ms(timeCall(func() { dst, chErr = ch.SolveVec(b, dst) }))
	if chErr != nil {
		return nil, fmt.Errorf("cholesky solve probe: %w", chErr)
	}
	return out, nil
}

// rowsOf returns a copy of at most n leading rows of x.
func rowsOf(x *linalg.Matrix, n int) *linalg.Matrix {
	if x.Rows <= n {
		return x
	}
	out, err := linalg.NewMatrixFrom(n, x.Cols, append([]float64(nil), x.Data[:n*x.Cols]...))
	if err != nil {
		panic(err) // the slice has exactly n·Cols values
	}
	return out
}

// probeRoundShare times one learner's SeededSession.RoundShare at the
// workload's contribution dimension and cohort, in microseconds.
func probeRoundShare(dim int) (float64, error) {
	codec := fixedpoint.Default()
	sessions := make([]*securesum.SeededSession, learners)
	for i := range sessions {
		s, err := securesum.NewSeededSession(i, learners, dim, 1, codec, nil)
		if err != nil {
			return 0, err
		}
		sessions[i] = s
	}
	for i, s := range sessions {
		for j, peer := range sessions {
			if i == j {
				continue
			}
			seed, err := s.SeedFor(j)
			if err != nil {
				return 0, err
			}
			if err := peer.SetPeerSeed(i, seed); err != nil {
				return 0, err
			}
		}
	}
	value := make([]float64, dim)
	for i := range value {
		value[i] = float64(i%7) - 3
	}
	var err error
	round := int32(0)
	d := timeCall(func() {
		_, err = sessions[0].RoundShare(round, value)
		round++
	})
	return float64(d) / float64(time.Microsecond), err
}

// probeFold times the reducer's fold of one round at the workload's
// contribution dimension and cohort: decode M wire shares and add each into
// the aggregate, then decode the aggregate to floats. In microseconds.
func probeFold(dim int) (float64, error) {
	codec := fixedpoint.Default()
	wire := make([][]byte, learners)
	for i := range wire {
		v := make([]uint64, dim)
		for j := range v {
			v[j] = uint64(i*dim + j)
		}
		wire[i] = securesum.AppendShares(nil, v)
	}
	acc := make([]uint64, dim)
	var share []uint64
	var sum []float64
	var err error
	d := timeCall(func() {
		clear(acc)
		for _, b := range wire {
			if share, err = securesum.DecodeSharesInto(share, b); err != nil {
				return
			}
			if err = fixedpoint.AddVec(acc, share); err != nil {
				return
			}
		}
		sum, err = codec.DecodeVec(acc, sum)
	})
	return float64(d) / float64(time.Microsecond), err
}

// Probe repetition: a probe repeats until it has run probeMinReps times and
// for at least probeMinTime, or for probeMaxReps times, and reports the
// median call.
const (
	probeMinReps = 3
	probeMaxReps = 1000
	probeMinTime = 50 * time.Millisecond
)

func timeCall(f func()) time.Duration {
	var times []float64
	start := time.Now()
	for len(times) < probeMaxReps && (len(times) < probeMinReps || time.Since(start) < probeMinTime) {
		t0 := time.Now()
		f()
		times = append(times, float64(time.Since(t0)))
	}
	sort.Float64s(times)
	return time.Duration(median(times))
}
