package qp

// Oracle tests for the fused coordinate step. SolveBox and SolveEqualityBox
// update the gradient and pick the next working set in one pass over n. The
// reference solvers below keep the textbook two-pass form — an Axpy per
// moved coordinate, then a separate selection scan — and every solve must
// reproduce them bit for bit: λ, Iterations, KKTViolation and Converged.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

// refResult is a reference solve's outcome. stuckSteps counts the zero
// steps SolveBox's stuck path absorbed, so the test can show it was reached.
type refResult struct {
	Result
	stuckSteps int
}

// refSolveBox is SolveBox with a full Gauss–Southwell scan at the top of
// every step and a separate Axpy for the gradient update.
func refSolveBox(p Problem, opts ...Option) refResult {
	n := p.Q.Rows
	cfg := newConfig(n, opts)
	lambda := make([]float64, n)
	if cfg.warmStart != nil {
		for i, v := range cfg.warmStart {
			lambda[i] = linalg.Clamp(v, 0, p.C)
		}
	}
	grad := gradient(&p, lambda, make([]float64, n))
	var stuck []bool
	stuckCount := 0
	var res refResult
	res.Lambda = lambda
	for res.Iterations = 0; res.Iterations < cfg.maxIter; res.Iterations++ {
		best, bestViol := -1, cfg.tol
		for i := 0; i < n; i++ {
			if stuckCount > 0 && stuck[i] {
				continue
			}
			if v := math.Abs(refProjectedGradient(grad[i], lambda[i], p.C)); v > bestViol {
				best, bestViol = i, v
			}
		}
		if best < 0 {
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
			res.stuckSteps++
			continue
		}
		lambda[i] = target
		linalg.Axpy(delta, p.Q.Row(i), grad)
		if stuckCount > 0 {
			for j := range stuck {
				stuck[j] = false
			}
			stuckCount = 0
		}
	}
	for i := range lambda {
		if v := math.Abs(refProjectedGradient(grad[i], lambda[i], p.C)); v > res.KKTViolation {
			res.KKTViolation = v
		}
	}
	res.Converged = res.KKTViolation <= cfg.tol
	return res
}

// refProjectedGradient is the projection written with math.Min/math.Max.
func refProjectedGradient(g, li, c float64) float64 {
	switch {
	case li <= 0:
		return math.Min(g, 0)
	case li >= c:
		return math.Max(g, 0)
	default:
		return g
	}
}

// refSolveEqualityBox is SolveEqualityBox with a selection scan (two for
// WSS2) at the top of every step and one Axpy per moved coordinate.
func refSolveEqualityBox(p Problem, y []float64, d float64, opts ...Option) (refResult, error) {
	n := p.Q.Rows
	cfg := newConfig(n, opts)
	lambda := make([]float64, n)
	if cfg.warmStart != nil {
		for i, v := range cfg.warmStart {
			lambda[i] = linalg.Clamp(v, 0, p.C)
		}
	}
	if err := repairEquality(lambda, y, d, p.C); err != nil {
		return refResult{}, err
	}
	grad := gradient(&p, lambda, make([]float64, n))
	var res refResult
	res.Lambda = lambda
	for res.Iterations = 0; res.Iterations < cfg.maxIter; res.Iterations++ {
		var i, j int
		var viol float64
		if cfg.secondOrder {
			i, j, viol = refSecondOrderPair(&p, grad, lambda, y)
		} else {
			i, j, viol = refViolatingPair(grad, lambda, y, p.C)
		}
		res.KKTViolation = viol
		if viol <= cfg.tol {
			res.Converged = true
			return res, nil
		}
		a := p.Q.At(i, i) + p.Q.At(j, j) - 2*y[i]*y[j]*p.Q.At(i, j)
		if a <= tau {
			a = tau
		}
		t := (y[j]*grad[j] - y[i]*grad[i]) / a
		t = math.Min(t, stepMax(lambda[i], y[i], p.C))
		t = math.Min(t, stepMax(lambda[j], -y[j], p.C))
		if t <= 0 {
			res.Converged = viol <= cfg.tol
			return res, nil
		}
		lambda[i] += y[i] * t
		lambda[j] -= y[j] * t
		lambda[i] = linalg.Clamp(lambda[i], 0, p.C)
		lambda[j] = linalg.Clamp(lambda[j], 0, p.C)
		linalg.Axpy(y[i]*t, p.Q.Row(i), grad)
		linalg.Axpy(-y[j]*t, p.Q.Row(j), grad)
	}
	_, _, res.KKTViolation = refViolatingPair(grad, lambda, y, p.C)
	res.Converged = res.KKTViolation <= cfg.tol
	return res, nil
}

// refViolatingPair is first-order maximal-violating-pair selection.
func refViolatingPair(grad, lambda, y []float64, c float64) (i, j int, violation float64) {
	up, low := -1, -1
	m, mm := math.Inf(-1), math.Inf(1)
	for k := range lambda {
		f := -y[k] * grad[k]
		inUp := (y[k] > 0 && lambda[k] < c) || (y[k] < 0 && lambda[k] > 0)
		inLow := (y[k] < 0 && lambda[k] < c) || (y[k] > 0 && lambda[k] > 0)
		if inUp && f > m {
			m, up = f, k
		}
		if inLow && f < mm {
			mm, low = f, k
		}
	}
	if up < 0 || low < 0 {
		return 0, 0, 0
	}
	return up, low, m - mm
}

// refSecondOrderPair is LIBSVM's WSS2 as two scans: one for i, one over
// Q's row i for j.
func refSecondOrderPair(p *Problem, grad, lambda, y []float64) (i, j int, violation float64) {
	c := p.C
	up := -1
	m := math.Inf(-1)
	for k := range lambda {
		inUp := (y[k] > 0 && lambda[k] < c) || (y[k] < 0 && lambda[k] > 0)
		if inUp {
			if f := -y[k] * grad[k]; f > m {
				m, up = f, k
			}
		}
	}
	if up < 0 {
		return 0, 0, 0
	}
	qii := p.Q.At(up, up)
	qRow := p.Q.Row(up)
	best := -1
	bestGain := math.Inf(1)
	mm := math.Inf(1)
	for k := range lambda {
		inLow := (y[k] < 0 && lambda[k] < c) || (y[k] > 0 && lambda[k] > 0)
		if !inLow {
			continue
		}
		f := -y[k] * grad[k]
		if f < mm {
			mm = f
		}
		diff := m - f
		if diff <= 0 {
			continue
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
	return up, best, m - mm
}

// sameResult reports the first field where got differs from the reference
// bit for bit, or "" when none does.
func sameResult(got *Result, want refResult) string {
	switch {
	case got.Iterations != want.Iterations:
		return "Iterations"
	case math.Float64bits(got.KKTViolation) != math.Float64bits(want.KKTViolation):
		return "KKTViolation"
	case got.Converged != want.Converged:
		return "Converged"
	case len(got.Lambda) != len(want.Lambda):
		return "len(Lambda)"
	}
	for i := range got.Lambda {
		if math.Float64bits(got.Lambda[i]) != math.Float64bits(want.Lambda[i]) {
			return "Lambda"
		}
	}
	return ""
}

// hlDualHessian returns η·YXXᵀY + yyᵀ/ρ for n random rows X of k features
// and labels y: the joint-box Hessian an HL learner builds, of rank k+1.
func hlDualHessian(rng *rand.Rand, n, k int, eta, rho float64) (q, x *linalg.Matrix, y []float64) {
	x = linalg.NewMatrix(n, k)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y = randomLabels(rng, n)
	q, err := linalg.MatMulT(x, x)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		row := q.Row(i)
		for j := range row {
			row[j] = row[j]*eta*y[i]*y[j] + y[i]*y[j]/rho
		}
	}
	return q, x, y
}

// oracleCase is one problem the fused solvers are checked on.
type oracleCase struct {
	name string
	prob Problem
	y    []float64 // nil: box only
	d    float64
	opts []Option
}

// oracleCases builds the seeded problem set: random SPD problems, the HL
// rank-29 Hessian at n = 100 (cold, and warm across shifting P as rounds
// do), rank-deficient and flat-curvature problems, the flat-curvature
// fixtures, and a coordinate whose step rounds to zero.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	rng := rand.New(rand.NewSource(20260518))
	var cases []oracleCase
	add := func(name string, prob Problem, y []float64, d float64, opts ...Option) {
		cases = append(cases, oracleCase{name: name, prob: prob, y: y, d: d, opts: opts})
	}
	labelled := func(prob Problem) ([]float64, float64) {
		n := prob.Q.Rows
		y := randomLabels(rng, n)
		x := randomFeasibleBox(rng, n, prob.C)
		d := 0.0
		for i := range x {
			d += y[i] * x[i]
		}
		return y, d
	}

	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(40)
		prob := randomProblem(rng, n, 0.5+rng.Float64()*3)
		y, d := labelled(prob)
		add("spd", prob, y, d, WithTolerance(1e-8))
		add("spd-warm", prob, y, d, WithWarmStart(randomFeasibleBox(rng, n, prob.C)))
		add("spd-capped", prob, y, d, WithMaxIter(1+rng.Intn(n+1)))
	}

	// HL shape: n = 100 rows, k = 28 features, ρ = 1 with M = 4 learners.
	const rho = 1.0
	eta := 4 / (1 + rho*4)
	q, _, yHL := hlDualHessian(rng, 100, 28, eta, rho)
	warm := make([]float64, 100)
	for round := 0; round < 6; round++ {
		pv := make([]float64, 100)
		for i := range pv {
			pv[i] = 0.3*rng.NormFloat64() - 1
		}
		prob := Problem{Q: q, P: pv, C: 1}
		add("hl-cold", prob, yHL, 0, WithTolerance(1e-6))
		add("hl-warm", prob, yHL, 0, WithTolerance(1e-6), WithWarmStart(append([]float64(nil), warm...)))
		ref := refSolveBox(prob, WithTolerance(1e-6), WithWarmStart(warm))
		copy(warm, ref.Lambda)
	}

	// Rank-deficient Q = BBᵀ, some with a zeroed row and column (the
	// fixture generator of TestSolveBoxBookkeepingConsistentOnRandomProblems).
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		r := 1 + rng.Intn(n)
		b := linalg.NewMatrix(n, r)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		qd, err := linalg.MatMulT(b, b)
		if err != nil {
			t.Fatal(err)
		}
		if trial%3 == 0 {
			z := rng.Intn(n)
			for j := 0; j < n; j++ {
				qd.Set(z, j, 0)
				qd.Set(j, z, 0)
			}
		}
		pv := make([]float64, n)
		for i := range pv {
			pv[i] = rng.NormFloat64()
		}
		prob := Problem{Q: qd, P: pv, C: 1 + rng.Float64()*10}
		y, d := labelled(prob)
		add("rank-deficient", prob, y, d, WithMaxIter(200))
	}

	// The flat-curvature fixtures of flatcurvature_test.go.
	zero := linalg.NewMatrix(3, 3)
	add("zero-diagonal", Problem{Q: zero, P: []float64{-1, 0.5, -2}, C: 3}, nil, 0)
	coupled, err := linalg.NewMatrixFrom(2, 2, []float64{0, -1, -1, 0})
	if err != nil {
		t.Fatal(err)
	}
	add("zero-diagonal-coupled", Problem{Q: coupled, P: []float64{-1, -1}, C: 1}, nil, 0)
	subTau, err := linalg.NewMatrixFrom(3, 3, []float64{1e-13, 0, 0, 0, 1e-13, 0, 0, 0, 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]float64{nil, {4, 4, 4}, {0, 0, 0}, {2, 2, 2}} {
		prob := Problem{Q: subTau, P: []float64{-2, 1, -0.5}, C: 4}
		if w == nil {
			add("sub-tau", prob, nil, 0)
		} else {
			add("sub-tau-warm", prob, nil, 0, WithWarmStart(w))
		}
	}

	// Exact ties: a symmetric Q and a constant P give every coordinate the
	// same gradient, so the first index must win each selection for the
	// iterates to match.
	tied, err := linalg.NewMatrixFrom(4, 4, []float64{
		2, 1, 1, 1,
		1, 2, 1, 1,
		1, 1, 2, 1,
		1, 1, 1, 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	add("ties", Problem{Q: tied, P: []float64{-1, -1, -1, -1}, C: 1}, []float64{1, -1, 1, -1}, 0)

	// Stuck coordinate: at the warm start q₀₀λ₀ cancels p₀ exactly and the
	// coupling to λ₁ leaves g₀ = 1e-5, above tolerance, but the Newton step
	// −g₀/q₀₀ = −1e-19 is far below half an ulp of λ₀ = 2, so it rounds to
	// zero. The solver must skip coordinate 0, move the others, and retry it.
	const q00 = 1e14
	stuckQ, err := linalg.NewMatrixFrom(3, 3, []float64{
		q00, 1e-5, 0,
		1e-5, 1, 0.5,
		0, 0.5, 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stuckP := Problem{Q: stuckQ, P: []float64{-2 * q00, -1 - 2e-5 + 5e-6, -1}, C: 10}
	add("stuck", stuckP, nil, 0, WithWarmStart([]float64{2, 1, 0}))
	add("stuck-tight", stuckP, nil, 0, WithWarmStart([]float64{2, 1, 0}), WithTolerance(1e-12))
	return cases
}

// TestFusedSolversMatchTwoPassReference checks SolveBox and both selection
// rules of SolveEqualityBox against the two-pass reference solvers, fresh
// and through one Scratch reused across every solve.
func TestFusedSolversMatchTwoPassReference(t *testing.T) {
	cases := oracleCases(t)
	var scr Scratch
	var stuckSteps, boxChecked, smoChecked int
	for ci, c := range cases {
		box := refSolveBox(c.prob, c.opts...)
		stuckSteps += box.stuckSteps
		for _, scratch := range []bool{false, true} {
			opts := c.opts
			if scratch {
				opts = append(append([]Option(nil), c.opts...), WithScratch(&scr))
			}
			got, err := SolveBox(c.prob, opts...)
			if err != nil {
				t.Fatalf("case %d (%s): SolveBox: %v", ci, c.name, err)
			}
			if f := sameResult(got, box); f != "" {
				t.Errorf("case %d (%s, scratch=%v): SolveBox %s differs from the two-pass reference", ci, c.name, scratch, f)
			}
			boxChecked++
		}
		if c.y == nil {
			continue
		}
		for _, second := range []bool{false, true} {
			opts := c.opts
			if second {
				opts = append(append([]Option(nil), c.opts...), WithSecondOrderSelection())
			}
			want, err := refSolveEqualityBox(c.prob, c.y, c.d, opts...)
			if err != nil {
				t.Fatalf("case %d (%s): reference SMO: %v", ci, c.name, err)
			}
			for _, scratch := range []bool{false, true} {
				sopts := opts
				if scratch {
					sopts = append(append([]Option(nil), opts...), WithScratch(&scr))
				}
				got, err := SolveEqualityBox(c.prob, c.y, c.d, sopts...)
				if err != nil {
					t.Fatalf("case %d (%s): SolveEqualityBox: %v", ci, c.name, err)
				}
				if f := sameResult(got, want); f != "" {
					t.Errorf("case %d (%s, wss2=%v, scratch=%v): SolveEqualityBox %s differs from the two-pass reference", ci, c.name, second, scratch, f)
				}
				smoChecked++
			}
		}
	}
	if stuckSteps == 0 {
		t.Error("no case reached SolveBox's zero-step (stuck) path")
	}
	t.Logf("%d box and %d SMO solves bit-identical; %d stuck steps in the reference box runs", boxChecked, smoChecked, stuckSteps)
}
