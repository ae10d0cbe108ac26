// Package qp solves the convex quadratic programs that arise as ADMM local
// sub-problems and as the centralized SVM dual:
//
//	minimize   ½ λᵀ Q λ + pᵀ λ
//	subject to 0 ≤ λ ≤ C            (SolveBox)
//	           and optionally yᵀλ = d with y ∈ {−1,+1}ⁿ  (SolveEqualityBox)
//
// SolveBox uses Gauss–Southwell projected coordinate descent (greedy exact
// line search per coordinate); SolveEqualityBox uses sequential minimal
// optimization with maximal-violating-pair working-set selection, the same
// scheme popularized by LIBSVM. Both maintain the gradient incrementally and
// make one fused pass over n per step: the pass that applies the step to the
// gradient also selects the next working set.
package qp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/telemetry"
)

// Errors returned by the solvers.
var (
	// ErrInfeasible indicates no point satisfies 0 ≤ λ ≤ C and yᵀλ = d.
	ErrInfeasible = errors.New("qp: problem is infeasible")
	// ErrBadProblem indicates inconsistent problem dimensions or parameters.
	ErrBadProblem = errors.New("qp: malformed problem")
)

// tau is the LIBSVM-style floor on the curvature of a working pair; it keeps
// steps finite when Q is only positive semidefinite.
const tau = 1e-12

// Problem is the QP data. Q must be symmetric positive semidefinite and P
// must have length Q.Rows. C > 0 is the uniform box upper bound.
type Problem struct {
	Q *linalg.Matrix
	P []float64
	C float64
}

func (p *Problem) validate() error {
	switch {
	case p.Q == nil:
		return fmt.Errorf("%w: nil Q", ErrBadProblem)
	case p.Q.Rows != p.Q.Cols:
		return fmt.Errorf("%w: Q is %dx%d, not square", ErrBadProblem, p.Q.Rows, p.Q.Cols)
	case len(p.P) != p.Q.Rows:
		return fmt.Errorf("%w: P has length %d, want %d", ErrBadProblem, len(p.P), p.Q.Rows)
	case !(p.C > 0):
		return fmt.Errorf("%w: C = %g, want > 0", ErrBadProblem, p.C)
	}
	return nil
}

// Objective evaluates ½ λᵀQλ + pᵀλ; used by tests and KKT reporting.
func (p *Problem) Objective(lambda []float64) float64 {
	qv, err := p.Q.MulVec(lambda, nil)
	if err != nil {
		return math.NaN()
	}
	return 0.5*linalg.Dot(lambda, qv) + linalg.Dot(p.P, lambda)
}

// Result reports the solution and solver diagnostics.
type Result struct {
	// Lambda is the (approximately) optimal point.
	Lambda []float64
	// Iterations is the number of coordinate / pair updates performed.
	Iterations int
	// KKTViolation is the final first-order optimality gap (solver-specific
	// units; ≤ the configured tolerance when Converged).
	KKTViolation float64
	// Converged reports whether the tolerance was met before the iteration cap.
	Converged bool
}

// Option configures a solver invocation. Options are plain values, not
// closures: newConfig applies them without the config ever escaping, so a
// solve allocates nothing for its configuration — the solvers sit on the
// consensus round hot path, which is pinned allocation-free.
type Option struct {
	kind optionKind
	f    float64
	n    int
	vec  []float64
	scr  *Scratch
	tel  *telemetry.Registry
}

type optionKind uint8

const (
	optTolerance optionKind = iota + 1
	optMaxIter
	optWarmStart
	optSecondOrder
	optScratch
	optTelemetry
)

// Scratch carries solver-owned buffers across solves so a steady-state round
// loop allocates nothing: with WithScratch, the returned Result and its
// Lambda alias the scratch and are overwritten by the next solve that uses
// the same Scratch. The zero value is ready to use; one Scratch must not be
// shared by concurrent solves.
type Scratch struct {
	lambda []float64
	grad   []float64
	buf    []float64
	res    Result
}

// WithScratch draws the solution vector, gradient, and Result from s instead
// of allocating. See Scratch for the aliasing contract.
func WithScratch(s *Scratch) Option { return Option{kind: optScratch, scr: s} }

type config struct {
	tol         float64
	maxIter     int
	warmStart   []float64
	secondOrder bool
	scratch     *Scratch
	tel         *telemetry.Registry
}

// takeLambda returns a zeroed length-n solution vector and a reset Result,
// drawn from the scratch when one was supplied.
func (c *config) takeLambda(n int) ([]float64, *Result) {
	if c.scratch == nil {
		return make([]float64, n), &Result{}
	}
	s := c.scratch
	if cap(s.lambda) < n {
		s.lambda = make([]float64, n)
	}
	s.lambda = s.lambda[:n]
	linalg.Zero(s.lambda)
	s.res = Result{}
	return s.lambda, &s.res
}

// takeGrad returns a length-n gradient buffer: scratch-owned when available,
// pooled otherwise. dropGrad returns only pooled buffers to the pool.
func (c *config) takeGrad(n int) []float64 {
	if c.scratch == nil {
		return getGradBuf(n)
	}
	s := c.scratch
	if cap(s.grad) < n {
		s.grad = make([]float64, n)
	}
	s.grad = s.grad[:n]
	return s.grad
}

func (c *config) dropGrad(g []float64) {
	if c.scratch == nil {
		putGradBuf(g)
	}
}

// takeBuf returns a length-n working buffer (contents unspecified), drawn
// from the scratch when one was supplied.
func (c *config) takeBuf(n int) []float64 {
	if c.scratch == nil {
		return make([]float64, n)
	}
	s := c.scratch
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	s.buf = s.buf[:n]
	return s.buf
}

func newConfig(n int, opts []Option) config {
	cfg := config{tol: 1e-6, maxIter: 0}
	for _, o := range opts {
		switch o.kind {
		case optTolerance:
			cfg.tol = o.f
		case optMaxIter:
			cfg.maxIter = o.n
		case optWarmStart:
			cfg.warmStart = o.vec
		case optSecondOrder:
			cfg.secondOrder = true
		case optScratch:
			cfg.scratch = o.scr
		case optTelemetry:
			cfg.tel = o.tel
		}
	}
	if cfg.maxIter <= 0 {
		cfg.maxIter = 1000*n + 10000
	}
	return cfg
}

// WithTolerance sets the KKT-violation stopping tolerance (default 1e-6).
func WithTolerance(tol float64) Option { return Option{kind: optTolerance, f: tol} }

// WithMaxIter caps the number of solver updates (default 1000·n + 10000).
func WithMaxIter(n int) Option { return Option{kind: optMaxIter, n: n} }

// WithWarmStart seeds the solver with a previous solution. The point is
// clipped to the box; SolveEqualityBox additionally repairs it to satisfy the
// equality constraint. A copy is taken: the caller's slice is not modified.
func WithWarmStart(lambda []float64) Option {
	return Option{kind: optWarmStart, vec: lambda}
}

// WithSecondOrderSelection switches SolveEqualityBox from first-order
// maximal-violating-pair working-set selection to LIBSVM's second-order rule
// (Fan, Chen, Lin 2005): i is the maximal "up" violator and j maximizes the
// per-step objective decrease (m − f_j)²/a_ij among the "low" candidates.
// Each step costs one extra Hessian-row scan but typically needs far fewer
// steps on ill-conditioned duals.
func WithSecondOrderSelection() Option {
	return Option{kind: optSecondOrder}
}

// SolveBox minimizes ½λᵀQλ + pᵀλ over the box [0, C]ⁿ.
func SolveBox(p Problem, opts ...Option) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.Q.Rows
	cfg := newConfig(n, opts)

	lambda, res := cfg.takeLambda(n)
	if cfg.warmStart != nil {
		if len(cfg.warmStart) != n {
			return nil, fmt.Errorf("%w: warm start has length %d, want %d", ErrBadProblem, len(cfg.warmStart), n)
		}
		for i, v := range cfg.warmStart {
			lambda[i] = linalg.Clamp(v, 0, p.C)
		}
	}
	grad := gradient(&p, lambda, cfg.takeGrad(n))
	defer cfg.dropGrad(grad)

	// stuck marks coordinates whose exact line-search step rounds to zero
	// (flat or near-flat curvature pinning them in place). They are skipped
	// by the selection until any other coordinate moves — which changes
	// their gradient and may free them — instead of aborting the whole
	// solve the moment the top violator cannot move.
	var stuck []bool
	stuckCount := 0
	res.Lambda = lambda
	// Gauss–Southwell: each step moves the coordinate with the largest
	// projected gradient. boxStep picks the next one while it applies the
	// step to the gradient, so only the start and the stuck path scan alone.
	best := selectCoordinate(grad, lambda, p.C, cfg.tol, nil)
	for res.Iterations = 0; res.Iterations < cfg.maxIter; res.Iterations++ {
		if best < 0 {
			// No movable violator above tolerance; final bookkeeping below
			// decides Converged from the full (stuck included) KKT gap.
			break
		}
		i := best
		qii := p.Q.At(i, i)
		var target float64
		if qii > tau {
			target = linalg.Clamp(lambda[i]-grad[i]/qii, 0, p.C)
		} else if grad[i] > 0 {
			target = 0
		} else {
			target = p.C
		}
		delta := target - lambda[i]
		if delta == 0 {
			if stuck == nil {
				stuck = make([]bool, n)
			}
			stuck[i] = true
			stuckCount++
			best = selectCoordinate(grad, lambda, p.C, cfg.tol, stuck)
			continue
		}
		lambda[i] = target
		if stuckCount > 0 {
			// The step changes every gradient; pinned coordinates may be
			// free again.
			for j := range stuck {
				stuck[j] = false
			}
			stuckCount = 0
		}
		best = boxStep(delta, p.Q.Row(i), grad, lambda, p.C, cfg.tol)
	}
	res.KKTViolation = maxProjectedGradient(grad, lambda, p.C)
	res.Converged = res.KKTViolation <= cfg.tol
	cfg.record("box", res)
	return res, nil
}

// SolveEqualityBox minimizes ½λᵀQλ + pᵀλ over {λ : 0 ≤ λ ≤ C, yᵀλ = d} where
// every y[i] is −1 or +1. The classical SVM dual is the special case d = 0.
func SolveEqualityBox(p Problem, y []float64, d float64, opts ...Option) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := p.Q.Rows
	if len(y) != n {
		return nil, fmt.Errorf("%w: y has length %d, want %d", ErrBadProblem, len(y), n)
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("%w: y[%d] = %g, want ±1", ErrBadProblem, i, v)
		}
	}
	cfg := newConfig(n, opts)

	lambda, res := cfg.takeLambda(n)
	if cfg.warmStart != nil {
		if len(cfg.warmStart) != n {
			return nil, fmt.Errorf("%w: warm start has length %d, want %d", ErrBadProblem, len(cfg.warmStart), n)
		}
		for i, v := range cfg.warmStart {
			lambda[i] = linalg.Clamp(v, 0, p.C)
		}
	}
	if err := repairEquality(lambda, y, d, p.C); err != nil {
		return nil, err
	}
	grad := gradient(&p, lambda, cfg.takeGrad(n))
	defer cfg.dropGrad(grad)

	res.Lambda = lambda
	sel := scanPairs(grad, lambda, y, p.C)
	for res.Iterations = 0; res.Iterations < cfg.maxIter; res.Iterations++ {
		i, j, viol := sel.violatingPair()
		if cfg.secondOrder {
			i, j, viol = secondOrderPair(&p, grad, lambda, y, sel)
		}
		res.KKTViolation = viol
		if viol <= cfg.tol {
			res.Converged = true
			cfg.record("smo", res)
			return res, nil
		}
		// Move along λ += t(y_i e_i − y_j e_j), which preserves yᵀλ.
		a := p.Q.At(i, i) + p.Q.At(j, j) - 2*y[i]*y[j]*p.Q.At(i, j)
		if a <= tau {
			a = tau
		}
		t := (y[j]*grad[j] - y[i]*grad[i]) / a
		// Box limits translated onto t.
		t = math.Min(t, stepMax(lambda[i], y[i], p.C))
		t = math.Min(t, stepMax(lambda[j], -y[j], p.C))
		if t <= 0 {
			// Numerically stuck pair; KKT gap already below meaningful change.
			res.Converged = viol <= cfg.tol
			cfg.record("smo", res)
			return res, nil
		}
		lambda[i] += y[i] * t
		lambda[j] -= y[j] * t
		lambda[i] = linalg.Clamp(lambda[i], 0, p.C)
		lambda[j] = linalg.Clamp(lambda[j], 0, p.C)
		sel = pairStep(y[i]*t, p.Q.Row(i), -y[j]*t, p.Q.Row(j), grad, lambda, y, p.C)
	}
	_, _, res.KKTViolation = sel.violatingPair()
	res.Converged = res.KKTViolation <= cfg.tol
	cfg.record("smo", res)
	return res, nil
}

// stepMax returns how far λ_i may move in direction dir (±1) before leaving
// [0, C].
func stepMax(li, dir, c float64) float64 {
	if dir > 0 {
		return c - li
	}
	return li
}

// pairScan holds the first-order working-set statistics of one pass over the
// gradient, with f_k = −y_k g_k: up maximizes f over I_up (value m) and low
// minimizes it over I_low (value mm); −1 when the set is empty. Ties go to
// the first index.
type pairScan struct {
	up, low int
	m, mm   float64
}

// inUp and inLow report membership of I_up and I_low: the coordinates along
// which f may still rise (resp. fall) without leaving [0, C].
func inUp(yk, lk, c float64) bool  { return (yk > 0 && lk < c) || (yk < 0 && lk > 0) }
func inLow(yk, lk, c float64) bool { return (yk < 0 && lk < c) || (yk > 0 && lk > 0) }

// newPairScan is the scan of no coordinates.
func newPairScan() pairScan { return pairScan{up: -1, low: -1, m: math.Inf(-1), mm: math.Inf(1)} }

// observe folds coordinate k, with f = −y_k g_k, into the scan. It compares
// f with the running extreme first, a test that seldom passes, so the
// branches on the labels, which follow no pattern, seldom run.
func (s pairScan) observe(k int, f, yk, lk, c float64) pairScan {
	if f > s.m && inUp(yk, lk, c) {
		s.m, s.up = f, k
	}
	if f < s.mm && inLow(yk, lk, c) {
		s.mm, s.low = f, k
	}
	return s
}

// scanPairs is the selection pass on its own, for the starting point.
func scanPairs(grad, lambda, y []float64, c float64) pairScan {
	s := newPairScan()
	for k := range lambda {
		s = s.observe(k, -y[k]*grad[k], y[k], lambda[k], c)
	}
	return s
}

// pairStep applies an accepted SMO step, grad += ai·ri + aj·rj, and selects
// the next working set in the same pass. Each element takes row i's term and
// then row j's, the order of two successive Axpy calls, so the gradient is
// bit-identical to updating it one row at a time.
func pairStep(ai float64, ri []float64, aj float64, rj []float64, grad, lambda, y []float64, c float64) pairScan {
	s := newPairScan()
	ri, rj, lambda, y = ri[:len(grad)], rj[:len(grad)], lambda[:len(grad)], y[:len(grad)]
	for k := range grad {
		grad[k] += ai * ri[k]
		grad[k] += aj * rj[k]
		s = s.observe(k, -y[k]*grad[k], y[k], lambda[k], c)
	}
	return s
}

// violatingPair is first-order maximal-violating-pair working-set selection:
// i ∈ I_up maximizing −y_i g_i, j ∈ I_low minimizing −y_j g_j, and the
// violation m − M (≤ 0 at optimality).
func (s pairScan) violatingPair() (i, j int, violation float64) {
	if s.up < 0 || s.low < 0 {
		return 0, 0, 0 // box fully binds; no feasible direction, KKT holds
	}
	return s.up, s.low, s.m - s.mm
}

// secondOrderPair implements LIBSVM's WSS2 rule on top of a first-order
// scan: i is the scan's maximal I_up violator, then j minimizes the one-step
// objective −(m − f_j)²/(2 a_ij) over violating I_low candidates, where
// a_ij = Q_ii + Q_jj − 2 y_i y_j Q_ij; only this scan over Q's row i is a
// second pass. The reported violation is the first-order gap m − M, so the
// stopping criterion is identical to the first-order solver's.
func secondOrderPair(p *Problem, grad, lambda, y []float64, s pairScan) (i, j int, violation float64) {
	c := p.C
	up, m := s.up, s.m
	if up < 0 {
		return 0, 0, 0
	}
	qii := p.Q.At(up, up)
	qRow := p.Q.Row(up)
	best := -1
	bestGain := math.Inf(1) // most negative objective change wins
	for k := range lambda {
		if !inLow(y[k], lambda[k], c) {
			continue
		}
		f := -y[k] * grad[k]
		diff := m - f
		if diff <= 0 {
			continue // not a violating partner
		}
		a := qii + p.Q.At(k, k) - 2*y[up]*y[k]*qRow[k]
		if a <= tau {
			a = tau
		}
		if gain := -diff * diff / a; gain < bestGain {
			bestGain, best = gain, k
		}
	}
	if best < 0 {
		return 0, 0, 0
	}
	return up, best, m - s.mm
}

// repairEquality adjusts λ in place, minimally in the ∞-norm sense, so that
// yᵀλ = d while staying inside [0, C]. It is used to make warm starts and
// fresh starts feasible. Returns ErrInfeasible when the box cannot reach d.
func repairEquality(lambda, y []float64, d, c float64) error {
	cur := 0.0
	for i := range lambda {
		cur += y[i] * lambda[i]
	}
	deficit := d - cur
	for i := 0; i < len(lambda) && math.Abs(deficit) > 0; i++ {
		// Raising λ_i changes the sum by y_i per unit; lowering by −y_i.
		var room float64
		if deficit*y[i] > 0 {
			room = c - lambda[i] // raise λ_i
		} else {
			room = lambda[i] // lower λ_i
		}
		if room <= 0 {
			continue
		}
		move := math.Min(room, math.Abs(deficit))
		if deficit*y[i] > 0 {
			lambda[i] += move
		} else {
			lambda[i] -= move
		}
		if deficit > 0 {
			deficit -= move
		} else {
			deficit += move
		}
		if math.Abs(deficit) < 1e-15 {
			deficit = 0
		}
	}
	if math.Abs(deficit) > 1e-12*(1+math.Abs(d)) {
		return fmt.Errorf("%w: cannot reach yᵀλ = %g with C = %g over %d variables", ErrInfeasible, d, c, len(lambda))
	}
	return nil
}

// gradPool recycles gradient buffers across solves. The consensus trainers
// call SolveBox/SolveEqualityBox once per Mapper per ADMM iteration, so in
// steady state the gradient is the solvers' only repeated allocation; a pool
// makes it free and stays correct when mappers solve concurrently.
var gradPool sync.Pool

func getGradBuf(n int) []float64 {
	if p, ok := gradPool.Get().(*[]float64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

func putGradBuf(g []float64) {
	g = g[:0]
	gradPool.Put(&g)
}

// gradient computes Qλ + p into g (len(p.P) elements), a pooled or
// scratch-owned buffer. For an all-zero λ it avoids the matrix-vector product
// entirely, the common cold-start case.
func gradient(p *Problem, lambda, g []float64) []float64 {
	copy(g, p.P)
	for i, v := range lambda {
		if v != 0 {
			linalg.Axpy(v, p.Q.Row(i), g)
		}
	}
	return g
}

// projectedGradient maps the raw gradient onto the feasible directions of the
// box at the current point: zero when the gradient pushes into an active
// bound. It runs once per element of every step, so it is written with
// comparisons the compiler inlines rather than math.Min/math.Max, which are
// assembly calls on amd64. It agrees with min(g, 0) and max(g, 0) taken by
// those functions on every input, NaN included, up to the sign of a zero
// result, which |·| and the solvers' comparisons ignore.
func projectedGradient(g, li, c float64) float64 {
	switch {
	case li <= 0:
		if g >= 0 {
			return 0
		}
	case li >= c:
		if g <= 0 {
			return 0
		}
	}
	return g
}

// selectCoordinate is the Gauss–Southwell selection on its own: the first
// coordinate whose projected gradient exceeds tol by the most, or −1 when
// none does. Coordinates marked in skip (nil for none) are passed over.
func selectCoordinate(grad, lambda []float64, c, tol float64, skip []bool) int {
	best, bestViol := -1, tol
	for i := range grad {
		if skip != nil && skip[i] {
			continue
		}
		if v := math.Abs(projectedGradient(grad[i], lambda[i], c)); v > bestViol {
			best, bestViol = i, v
		}
	}
	return best
}

// boxStep applies an accepted coordinate step, grad += delta·row, and in the
// same pass returns the next Gauss–Southwell coordinate: selectCoordinate of
// the updated gradient, with nothing skipped. The update is Axpy's own
// expression, so the gradient is bit-identical to a separate Axpy.
func boxStep(delta float64, row, grad, lambda []float64, c, tol float64) int {
	best, bestViol := -1, tol
	row, lambda = row[:len(grad)], lambda[:len(grad)]
	for j := range grad {
		grad[j] += delta * row[j]
		if v := math.Abs(projectedGradient(grad[j], lambda[j], c)); v > bestViol {
			best, bestViol = j, v
		}
	}
	return best
}

func maxProjectedGradient(grad, lambda []float64, c float64) float64 {
	var m float64
	for i := range lambda {
		if v := math.Abs(projectedGradient(grad[i], lambda[i], c)); v > m {
			m = v
		}
	}
	return m
}
