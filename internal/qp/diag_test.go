package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

func TestDiagValidation(t *testing.T) {
	if _, err := SolveUniformDiagEqualityBox(0, []float64{1}, 1, []float64{1}, 0); !errors.Is(err, ErrBadProblem) {
		t.Errorf("q0=0: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveUniformDiagEqualityBox(1, []float64{1}, 0, []float64{1}, 0); !errors.Is(err, ErrBadProblem) {
		t.Errorf("C=0: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveUniformDiagEqualityBox(1, []float64{1, 2}, 1, []float64{1}, 0); !errors.Is(err, ErrBadProblem) {
		t.Errorf("length mismatch: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveUniformDiagEqualityBox(1, []float64{1}, 1, []float64{2}, 0); !errors.Is(err, ErrBadProblem) {
		t.Errorf("bad label: err = %v, want ErrBadProblem", err)
	}
	if _, err := SolveUniformDiagEqualityBox(1, []float64{1, 1}, 1, []float64{1, 1}, 5); !errors.Is(err, ErrInfeasible) {
		t.Errorf("unreachable d: err = %v, want ErrInfeasible", err)
	}
}

func TestDiagMatchesDenseSMO(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		q0 := 0.1 + rng.Float64()*5
		c := 0.5 + rng.Float64()*3
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.NormFloat64() * 2
		}
		y := randomLabels(rng, n)
		// Reachable d.
		x := randomFeasibleBox(rng, n, c)
		d := 0.0
		for i := range x {
			d += y[i] * x[i]
		}

		got, err := SolveUniformDiagEqualityBox(q0, p, c, y, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		dense := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			dense.Set(i, i, q0)
		}
		want, err := SolveEqualityBox(Problem{Q: dense, P: p, C: c}, y, d, WithTolerance(1e-10))
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		prob := Problem{Q: dense, P: p, C: c}
		objGot, objWant := prob.Objective(got.Lambda), prob.Objective(want.Lambda)
		if objGot > objWant+1e-6*(1+math.Abs(objWant)) {
			t.Fatalf("trial %d: diag objective %g worse than SMO %g", trial, objGot, objWant)
		}
		// Constraint holds exactly.
		sum := 0.0
		for i := range got.Lambda {
			sum += y[i] * got.Lambda[i]
			if got.Lambda[i] < -1e-12 || got.Lambda[i] > c+1e-12 {
				t.Fatalf("trial %d: λ[%d]=%g outside box", trial, i, got.Lambda[i])
			}
		}
		if math.Abs(sum-d) > 1e-8*(1+math.Abs(d)) {
			t.Fatalf("trial %d: yᵀλ = %g, want %g", trial, sum, d)
		}
	}
}

func TestDiagAnalytic(t *testing.T) {
	// min ½‖λ‖² − λ₁ − λ₂ s.t. λ₁ − λ₂ = 0, box [0,10]: λ = (1,1).
	res, err := SolveUniformDiagEqualityBox(1, []float64{-1, -1}, 10, []float64{1, -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda[0]-1) > 1e-6 || math.Abs(res.Lambda[1]-1) > 1e-6 {
		t.Errorf("λ = %v, want [1 1]", res.Lambda)
	}
}

func TestDiagBindingBox(t *testing.T) {
	// Strong pull beyond the box: clip at C with the equality preserved.
	res, err := SolveUniformDiagEqualityBox(1, []float64{-100, -100}, 2, []float64{1, -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lambda[0]-2) > 1e-6 || math.Abs(res.Lambda[1]-2) > 1e-6 {
		t.Errorf("λ = %v, want [2 2]", res.Lambda)
	}
}

func TestDiagLargeProblemFast(t *testing.T) {
	// The point of the specialized solver: n = 20000 with no n² memory.
	rng := rand.New(rand.NewSource(34))
	n := 20000
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	y := randomLabels(rng, n)
	res, err := SolveUniformDiagEqualityBox(0.04, p, 50, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := range res.Lambda {
		sum += y[i] * res.Lambda[i]
	}
	if math.Abs(sum) > 1e-6 {
		t.Errorf("yᵀλ = %g, want 0", sum)
	}
}

// TestDiagReportsResidualAfterRepair cuts the bisection short so the
// exact-equality repair must fire, then checks that KKTViolation is the
// |yᵀλ − d| of the returned λ, the final gap, not the residual the repair
// started from.
func TestDiagReportsResidualAfterRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	n := 50
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64() * 3
	}
	y := randomLabels(rng, n)
	const c, q0 = 2.0, 0.5
	x := randomFeasibleBox(rng, n, c)
	d := 0.0
	for i := range x {
		d += y[i] * x[i]
	}
	// One bisection step leaves ν far from the root, so yᵀλ(ν) misses d.
	res, err := SolveUniformDiagEqualityBox(q0, p, c, y, d, WithMaxIter(1))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, v := range res.Lambda {
		if v < 0 || v > c {
			t.Fatalf("λ[%d] = %g outside [0, %g]", i, v, c)
		}
		sum += y[i] * v
	}
	gap := math.Abs(sum - d)
	if gap > 1e-9*(1+math.Abs(d)) {
		t.Fatalf("repair left |yᵀλ − d| = %g", gap)
	}
	if res.KKTViolation != gap {
		t.Errorf("KKTViolation = %g, want the final residual %g", res.KKTViolation, gap)
	}
}
