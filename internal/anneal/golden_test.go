package anneal

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// pointHash is an fnv64a digest of every point an objective is called
// with, in call order.
type pointHash struct {
	h   hash.Hash64
	buf [8]byte
}

func newPointHash() *pointHash { return &pointHash{h: fnv.New64a()} }

func (p *pointHash) add(bits uint64) {
	binary.LittleEndian.PutUint64(p.buf[:], bits)
	p.h.Write(p.buf[:])
}

// corpusShape returns 26 lattice dimensions sized 2..12, like the
// per-block candidate counts of the example corpus, and an energy over
// them shaped like the selection objective: a summed per-candidate error
// with a feasibility threshold plus a CNOT-count cost.
func corpusShape() ([]int, IntObjective) {
	rng := rand.New(rand.NewSource(29))
	sizes := make([]int, 26)
	eps := make([][]float64, len(sizes))
	cx := make([][]float64, len(sizes))
	for k := range sizes {
		sizes[k] = 2 + (k*7)%11
		eps[k] = make([]float64, sizes[k])
		cx[k] = make([]float64, sizes[k])
		for i := range eps[k] {
			eps[k][i] = 0.02 * rng.Float64() * float64(i)
			cx[k][i] = float64(sizes[k] - i)
		}
	}
	energy := func(choice []int) float64 {
		e, c := 0.0, 0.0
		for k, i := range choice {
			e += eps[k][i]
			c += cx[k][i]
		}
		if e > 0.6 {
			return 1 + (e - 0.6)
		}
		return c / 200
	}
	return sizes, energy
}

// golden is one pinned annealer run: the point digest, the final X (as
// float bits, or lattice indices), the bits of F, and the counters.
type golden struct {
	hash        uint64
	x           []uint64
	f           uint64
	iterations  int
	evaluations int
}

func floatBits(x []float64) []uint64 {
	out := make([]uint64, len(x))
	for i, v := range x {
		out[i] = math.Float64bits(v)
	}
	return out
}

// hashedFloats wraps f so every point it is called with feeds ph.
func hashedFloats(ph *pointHash, f func([]float64) float64) func([]float64) float64 {
	return func(x []float64) float64 {
		for _, v := range x {
			ph.add(math.Float64bits(v))
		}
		return f(x)
	}
}

// TestMinimizeGolden pins the annealer's exact float stream: the digest
// of every point passed to the objective plus the final result, recorded
// before the inner loop was rewritten for speed. Any later change must
// keep these bit-identical — the RNG stream, the visiting step, the bound
// wrap and the local search all feed the digest.
func TestMinimizeGolden(t *testing.T) {
	rastriginCase := func(noLocal bool) func(*testing.T, *pointHash) golden {
		return func(t *testing.T, ph *pointHash) golden {
			lo := []float64{-5.12, -5.12, -5.12, -5.12}
			hi := []float64{5.12, 5.12, 5.12, 5.12}
			res, err := MinimizeCtx(context.Background(), hashedFloats(ph, rastrigin), lo, hi,
				Options{Seed: 23, MaxIterations: 1000, NoLocalSearch: noLocal})
			if err != nil {
				t.Fatal(err)
			}
			return golden{0, floatBits(res.X), math.Float64bits(res.F), res.Iterations, res.Evaluations}
		}
	}
	cases := []struct {
		name string
		run  func(*testing.T, *pointHash) golden
		want golden
	}{
		{"rastrigin4d-local", rastriginCase(false), golden{0xe9eec9e6e86611fb, []uint64{0x3e76bd0b5cfa32f8, 0xbe9a38389573a8e8, 0xbe8d445a8d93574c, 0x3e8295339798fae8}, 0x3dc8b58000000000, 1000, 1742}},
		{"rastrigin4d-nolocal", rastriginCase(true), golden{0x2fe266ea822b3794, []uint64{0x3f8ab3e7c5323c00, 0xbfed5ebf83f53858, 0xbfee63e108e4c110, 0x3f99da66a87ee700}, 0x400da0c478516ca0, 1000, 1001}},
		{"ints-corpus-shape", func(t *testing.T, ph *pointHash) golden {
			sizes, energy := corpusShape()
			f := func(choice []int) float64 {
				for _, v := range choice {
					ph.add(uint64(v))
				}
				return energy(choice)
			}
			res, err := MinimizeIntsCtx(context.Background(), f, sizes, Options{Seed: 31, MaxIterations: 400})
			if err != nil {
				t.Fatal(err)
			}
			x := make([]uint64, len(res.X))
			for i, v := range res.X {
				x[i] = uint64(v)
			}
			return golden{0, x, math.Float64bits(res.F), res.Iterations, res.Evaluations}
		}, golden{0x3db9b4d2f4ba5941, []uint64{0x0, 0x7, 0x4, 0x2, 0x6, 0x3, 0x9, 0x6, 0x2, 0x5, 0x3, 0x1, 0x0, 0x3, 0x7, 0x1, 0x3, 0x1, 0x3, 0x1, 0x9, 0x2, 0x0, 0x2, 0x4, 0x8}, 0x3fdccccccccccccd, 400, 804}},
		// The same box driven through MinimizeCtx, so the digest covers
		// the continuous points (and their wrap into [0, n)) that the
		// lattice search floors away.
		{"floats-corpus-shape", func(t *testing.T, ph *pointHash) golden {
			sizes, energy := corpusShape()
			lower := make([]float64, len(sizes))
			upper := make([]float64, len(sizes))
			for k, n := range sizes {
				upper[k] = float64(n)
			}
			choice := make([]int, len(sizes))
			f := func(x []float64) float64 {
				floorClamp(x, sizes, choice)
				return energy(choice)
			}
			res, err := MinimizeCtx(context.Background(), hashedFloats(ph, f), lower, upper, Options{Seed: 31, MaxIterations: 400})
			if err != nil {
				t.Fatal(err)
			}
			return golden{0, floatBits(res.X), math.Float64bits(res.F), res.Iterations, res.Evaluations}
		}, golden{0x96ce8534e5ad95f7, []uint64{0x3fe60c459cd42604, 0x401f29596feb1222, 0x4014000000000000, 0x40068810cec2f10f, 0x401966ebf33b1220, 0x4009bf2240f23401, 0x40222f34f5998910, 0x4018936774fb1220, 0x40015cb6ba362442, 0x40158c73cec35516, 0x400bc93a9dd9f536, 0x3ff0732f5185e222, 0x3fe0ae495f4991f2, 0x4008ee6e72362442, 0x401f562e090db84e, 0x3ff16b561fec4884, 0x400994add7aaf10d, 0x3ffd07fb19f7f728, 0x400c6780267dd162, 0x3ff4532a0dec4884, 0x4022e807af7d8910, 0x4002b98bf7362442, 0x3fe79cc32f856ba8, 0x400447fb1a838a80, 0x4010d935193b1220, 0x402091dfe77d8912}, 0x3fdccccccccccccd, 400, 804}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ph := newPointHash()
			got := tc.run(t, ph)
			got.hash = ph.h.Sum64()
			if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", tc.want) {
				t.Errorf("annealer stream changed:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
