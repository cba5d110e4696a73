package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// wrapRef is the bound wrap as first written: math.Mod, then shift a
// negative remainder up by one span.
func wrapRef(x, span float64) float64 {
	r := math.Mod(x, span)
	if r < 0 {
		r += span
	}
	return r
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func checkWrap(t *testing.T, x, span float64) {
	t.Helper()
	if got, want := fmod(x, span), math.Mod(x, span); !sameBits(got, want) {
		t.Fatalf("fmod(%v, %v) = %v, want math.Mod's %v", x, span, got, want)
	}
	if !(span > 0) {
		return // wrap is only called with a positive span
	}
	if got, want := wrap(x, span), wrapRef(x, span); !sameBits(got, want) {
		t.Fatalf("wrap(%v, %v) = %v (%#x), want %v (%#x)",
			x, span, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func FuzzWrap(f *testing.F) {
	sub := math.SmallestNonzeroFloat64
	for _, span := range []float64{10.24, 3, 12, 1, sub, 7 * sub, 0x1p-1030} {
		for _, x := range []float64{0, math.Copysign(0, -1), span, -span, 2 * span, -2 * span,
			1e8, -1e8, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64} {
			f.Add(x, span)
		}
	}
	for _, span := range []float64{math.NaN(), math.Inf(1), 0, -3, math.MaxFloat64} {
		f.Add(5.5, span)
		f.Add(-5.5, span)
	}
	f.Fuzz(checkWrap)
}

// TestWrapMatchesModHeavyTail sweeps the range the annealer actually
// feeds wrap: Tsallis-tail offsets up to the 1e8 step limit over spans
// the size of lattice dimensions and test boxes, plus exact multiples of
// the span (where the remainder's zero must keep the sign of x).
func TestWrapMatchesModHeavyTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spans := []float64{1, 2, 3, 7, 12, 10.24, 2e6, 0.1}
	for i := 0; i < 200000; i++ {
		span := spans[i%len(spans)]
		x := math.Copysign(math.Exp(rng.Float64()*math.Log(2e8)), rng.Float64()-0.5)
		checkWrap(t, x, span)
		checkWrap(t, math.Trunc(x/span)*span, span)
	}
}
