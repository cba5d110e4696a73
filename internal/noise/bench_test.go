package noise

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
)

// benchCircuit builds a trajectory-heavy workload: a deep random circuit
// on n qubits, the shape that dominates the noisy figures (Figs. 10-15).
func benchCircuit(n, ops int) *circuit.Circuit {
	return benchCircuitSeed(n, ops, 7)
}

// benchCircuitSeed is benchCircuit drawn from a caller-chosen seed.
func benchCircuitSeed(n, ops int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		switch rng.Intn(3) {
		case 0:
			c.RY(rng.Intn(n), rng.Float64()*math.Pi)
		case 1:
			c.RZ(rng.Intn(n), rng.Float64()*math.Pi)
		default:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		}
	}
	return c
}

// BenchmarkModelRun compares the serial and parallel trajectory engines on
// the acceptance workload: same seed, same trajectory budget, bit-identical
// output, only the worker count differs.
func BenchmarkModelRun(b *testing.B) {
	c := benchCircuit(6, 120)
	m := Uniform(0.01)
	workerCounts := []int{1, runtime.NumCPU()}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("parallelism=%d", workers), func(b *testing.B) {
			opts := Options{Trajectories: 200, Seed: 1, Parallelism: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Run(c, opts)
			}
		})
	}
	// The ensemble shape: M = 16 distinct member circuits run on the
	// Manila model under one seed, as every questd job and compile-cold op
	// does, so all members draw from the same trajectory streams.
	members := make([]*circuit.Circuit, 16)
	for i := range members {
		members[i] = benchCircuitSeed(5, 60, int64(100+i))
	}
	manila := Manila().Model
	b.Run("ensemble=16", func(b *testing.B) {
		opts := Options{Seed: 1, Parallelism: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range members {
				manila.Run(c, opts)
			}
		}
	})
}

// BenchmarkModelRunWithShots includes readout error and shot sampling, the
// exact configuration of the Fig. 10/11 device runs.
func BenchmarkModelRunWithShots(b *testing.B) {
	c := benchCircuit(5, 100)
	m := Manila().Model
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("parallelism=%d", workers), func(b *testing.B) {
			opts := Options{Trajectories: 300, Shots: 8192, Seed: 1, Parallelism: workers}
			for i := 0; i < b.N; i++ {
				m.Run(c, opts)
			}
		})
	}
}

func BenchmarkTrajectory(b *testing.B) {
	c := benchCircuit(6, 120)
	m := Uniform(0.01)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Trajectory(c, rng)
	}
}

// BenchmarkSampleShots measures the shot sampler alone at the Fig. 10/11
// configuration (5-qubit distribution, 8192 shots) and at a wider
// distribution, comparing the guide-table batch path against the per-shot
// binary search it replaced.
func BenchmarkSampleShots(b *testing.B) {
	for _, dim := range []int{32, 1024} {
		rng := rand.New(rand.NewSource(11))
		p := make([]float64, dim)
		for i := range p {
			p[i] = rng.Float64()
		}
		const shots = 8192
		b.Run(fmt.Sprintf("guide/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SampleShots(p, shots, rng)
			}
		})
		b.Run(fmt.Sprintf("binary/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				binarySearchSampleShots(p, shots, rng)
			}
		})
	}
}
