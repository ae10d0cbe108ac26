package qp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ppml-go/ppml/internal/linalg"
)

func benchProblem(n int, seed int64) (Problem, []float64, float64) {
	rng := rand.New(rand.NewSource(seed))
	prob := randomProblem(rng, n, 2)
	y := randomLabels(rng, n)
	x := randomFeasibleBox(rng, n, prob.C)
	d := 0.0
	for i := range x {
		d += y[i] * x[i]
	}
	return prob, y, d
}

func BenchmarkSolveBox200Cold(b *testing.B) {
	prob, _, _ := benchProblem(200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBox(prob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveBox200Warm(b *testing.B) {
	prob, _, _ := benchProblem(200, 1)
	res, err := SolveBox(prob)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBox(prob, WithWarmStart(res.Lambda)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveEqualityBox200(b *testing.B) {
	prob, y, d := benchProblem(200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveEqualityBox(prob, y, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveUniformDiag10000(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 10000
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	y := randomLabels(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveUniformDiagEqualityBox(0.04, p, 50, y, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveEqualityBox200WSS2(b *testing.B) {
	prob, y, d := benchProblem(200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveEqualityBox(prob, y, d, WithSecondOrderSelection()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResult keeps the benchmarked solves observable to the compiler.
var benchResult *Result

// BenchmarkSolveBoxLowRank100Warm is one HL learner's run of rounds: the
// joint-box dual η·YXXᵀY + yyᵀ/ρ at M = 4, ρ = 100, C = 50 over n = 100 rows
// of k = 28 features (a rank-29 Hessian), re-solved for eight rounds of a
// linear term drifting toward its fixed point, each round warm-started from
// the last through one Scratch. One op is the whole eight-round sequence.
func BenchmarkSolveBoxLowRank100Warm(b *testing.B) {
	const n, k, rounds = 100, 28, 8
	const rho, c = 100.0, 50.0
	eta := 4 / (1 + rho*4)
	rng := rand.New(rand.NewSource(5))
	q, x, y := hlDualHessian(rng, n, k, eta, rho)
	// P_i = ηρ·y_i·x_iᵀu + t·y_i − 1 with (u, t) halving its distance to a
	// fixed point each round, as the consensus iterate does.
	ps := make([][]float64, rounds)
	u := make([]float64, k)
	for r := range ps {
		scale := math.Pow(0.5, float64(r))
		for j := range u {
			u[j] = 0.05 + scale*0.05*rng.NormFloat64()
		}
		t := scale * 0.1 * rng.NormFloat64()
		ps[r] = make([]float64, n)
		for i := range ps[r] {
			ps[r][i] = eta*rho*y[i]*linalg.Dot(x.Row(i), u) + t*y[i] - 1
		}
	}
	var scr Scratch
	warm := make([]float64, n)
	opts := []Option{WithScratch(&scr), WithWarmStart(warm)}
	iters := 0
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		linalg.Zero(warm)
		for _, p := range ps {
			res, err := SolveBox(Problem{Q: q, P: p, C: c}, opts...)
			if err != nil {
				b.Fatal(err)
			}
			copy(warm, res.Lambda)
			iters += res.Iterations
			benchResult = res
		}
	}
	b.ReportMetric(float64(iters)/float64(b.N*rounds), "iters/solve")
}
