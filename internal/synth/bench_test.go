package synth

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/par"
)

func benchObjective3Q(b *testing.B) (*objective, []float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	target := linalg.RandomUnitary(8, rng)
	a := newSeedAnsatz(3).withLayer(0, 1).withLayer(1, 2).withLayer(0, 2)
	obj := newObjective(a, target)
	params := make([]float64, a.nparams)
	grad := make([]float64, a.nparams)
	for i := range params {
		params[i] = rng.Float64()
	}
	return obj, params, grad
}

func BenchmarkObjectiveGradient3Q(b *testing.B) {
	obj, params, grad := benchObjective3Q(b)
	obj.valueGrad(params, grad) // warm up scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj.valueGrad(params, grad)
	}
}

func BenchmarkObjectiveValue3Q(b *testing.B) {
	obj, params, _ := benchObjective3Q(b)
	obj.value(params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj.value(params)
	}
}

func BenchmarkApplyLeft1Q(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := linalg.RandomUnitary(16, rng)
	g := linalg.RandomUnitary(2, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.ApplyLeft1(m, (*[4]complex128)(g.Data), 2)
	}
}

func BenchmarkApplyLeft2Q(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := linalg.RandomUnitary(16, rng)
	g := linalg.RandomUnitary(4, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.ApplyLeft2(m, (*[16]complex128)(g.Data), 3, 1)
	}
}

func BenchmarkSynthesizeExact2Q(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	target := linalg.RandomUnitary(4, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(target, Options{Threshold: 1e-6, MaxCNOTs: 3, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesizeHarvest3Q(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	target := linalg.RandomUnitary(8, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(target, Options{
			Threshold: 0.05, MaxCNOTs: 6, HarvestAll: true, Beam: 1, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesize3QBlock is one pipeline-shaped block search (QUEST
// harvest over every CNOT count up to 6) run under a pool slot, as the
// synthesis stage runs it. With 2 slots the search lends each depth's
// optimizer runs to the idle one; the result is the same either way.
func BenchmarkSynthesize3QBlock(b *testing.B) {
	target := linalg.RandomUnitary(8, rand.New(rand.NewSource(5)))
	opts := Options{Threshold: 0.0125, MaxCNOTs: 6, HarvestAll: true, Seed: 9}
	for _, slots := range []int{1, 2} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			p := par.NewPool(slots)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := p.ForEachErr(context.Background(), 1, func(ctx context.Context, _ int) error {
					_, err := SynthesizeCtx(ctx, target, opts)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
