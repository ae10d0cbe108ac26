package consensus

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
)

// hashFloats is the FNV-64a hash of the float64 bit patterns, in order — the
// same fingerprint the async experiment's MinibatchHash takes of a model.
func hashFloats(vecs ...[]float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vecs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestModelHashesPinned trains every model family on fixed data in both
// engine modes — Distributed false, and strict distributed rounds under the
// default masked aggregation — and checks each model's bit pattern against a
// recorded fingerprint. Any change to the round engine that moves a single
// bit of any model fails here. The fingerprints assume the amd64 AVX2+FMA
// compute kernels; the portable fallbacks round differently.
func TestModelHashesPinned(t *testing.T) {
	want := map[string]string{
		"local/HL":               "9deb07fa159807e5",
		"local/HK":               "d55a88997c64ec1f",
		"local/VL":               "696f5c96e1444f7b",
		"local/VK":               "b730e0aa0830461d",
		"local/logistic":         "718a94ae0b2dc60e",
		"local/naivebayes":       "3ca66ad7e10d8bb8",
		"distributed/HL":         "7d5b2e7b2257dcf4",
		"distributed/HK":         "9c49d59f49fd26d9",
		"distributed/VL":         "60ee654e9f57fbc1",
		"distributed/VK":         "9b1a762973b6e261",
		"distributed/logistic":   "5d3964ebfe84f896",
		"distributed/naivebayes": "08aaa7640d1ce355",
	}
	linear, _ := splitAndScale(t, dataset.TwoGaussians("g", 160, 5, 3, 41))
	rings, _, err := nonlinearRings(160, 43).Split(0.5)
	if err != nil {
		t.Fatal(err)
	}
	rbf := kernel.RBF{Gamma: 1}
	trainers := []struct {
		name  string
		train func(ctx context.Context, cfg Config) (string, error)
	}{
		{"HL", func(ctx context.Context, cfg Config) (string, error) {
			m, _, err := TrainHorizontalLinear(ctx, horizontalParts(t, linear, 3, 5), cfg)
			if err != nil {
				return "", err
			}
			return hashFloats(m.W, []float64{m.B}), nil
		}},
		{"HK", func(ctx context.Context, cfg Config) (string, error) {
			cfg.Kernel, cfg.Landmarks = rbf, 8
			m, _, err := TrainHorizontalKernel(ctx, horizontalParts(t, rings, 3, 5), cfg)
			if err != nil {
				return "", err
			}
			vecs := append(append([][]float64{m.B}, m.CoefX...), m.CoefG...)
			return hashFloats(vecs...), nil
		}},
		{"VL", func(ctx context.Context, cfg Config) (string, error) {
			parts, cols := verticalParts(t, linear, 3, 5)
			m, _, err := TrainVerticalLinear(ctx, parts, cols, cfg)
			if err != nil {
				return "", err
			}
			return hashFloats(m.W, []float64{m.B}), nil
		}},
		{"VK", func(ctx context.Context, cfg Config) (string, error) {
			cfg.Kernel = rbf
			parts, cols := verticalParts(t, rings, 2, 5)
			m, _, err := TrainVerticalKernel(ctx, parts, cols, cfg)
			if err != nil {
				return "", err
			}
			return hashFloats(append([][]float64{{m.B}}, m.Alpha...)...), nil
		}},
		{"logistic", func(ctx context.Context, cfg Config) (string, error) {
			m, _, err := TrainHorizontalLogistic(ctx, horizontalParts(t, linear, 3, 5), cfg)
			if err != nil {
				return "", err
			}
			return hashFloats(m.W, []float64{m.B}), nil
		}},
		{"naivebayes", func(ctx context.Context, cfg Config) (string, error) {
			m, _, err := TrainNaiveBayes(ctx, horizontalParts(t, linear, 3, 5), cfg)
			if err != nil {
				return "", err
			}
			return hashFloats([]float64{m.PriorPos}, m.MeanPos, m.VarPos, m.MeanNeg, m.VarNeg), nil
		}},
	}
	for _, mode := range []string{"local", "distributed"} {
		for _, tr := range trainers {
			name := mode + "/" + tr.name
			t.Run(name, func(t *testing.T) {
				cfg := Config{C: 10, Rho: 20, MaxIterations: 12, Distributed: mode == "distributed"}
				got, err := tr.train(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[name] {
					t.Errorf("model hash %s, want %s", got, want[name])
				}
			})
		}
	}
}
