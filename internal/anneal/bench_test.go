package anneal

import (
	"context"
	"testing"
)

func BenchmarkMinimizeRastrigin4D(b *testing.B) {
	lo := []float64{-5.12, -5.12, -5.12, -5.12}
	hi := []float64{5.12, 5.12, 5.12, 5.12}
	for i := 0; i < b.N; i++ {
		Minimize(rastrigin, lo, hi, Options{Seed: int64(i + 1), MaxIterations: 500})
	}
}

// BenchmarkMinimizeIntsCorpusShape is one ensemble-selection anneal as a
// corpus recompile runs it: 26 lattice dimensions sized 2..12, 400
// iterations, local search on.
func BenchmarkMinimizeIntsCorpusShape(b *testing.B) {
	sizes, energy := corpusShape()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeIntsCtx(context.Background(), energy, sizes, Options{Seed: int64(i + 1), MaxIterations: 400}); err != nil {
			b.Fatal(err)
		}
	}
}
