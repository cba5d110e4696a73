package noise

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/circuit"
)

// digestCase is one pinned Model.Run configuration.
type digestCase struct {
	name  string
	model Model
	c     *circuit.Circuit
	opts  Options
}

func digestCases() []digestCase {
	c5 := benchCircuit(5, 80)
	c3 := benchCircuit(3, 40)
	damped := Model{OneQubitError: 0.004, TwoQubitError: 0.03, ReadoutError: 0.01, DampingError: 0.02}
	base := []digestCase{
		{"manila", Manila().Model, c5, Options{Seed: 1}},
		{"manila-shots", Manila().Model, c5, Options{Seed: 7, Trajectories: 60, Shots: 1024}},
		{"uniform", Uniform(0.01), c5, Options{Seed: 3, Trajectories: 123}},
		{"damping", damped, c3, Options{Seed: 11, Trajectories: 77}},
	}
	var cases []digestCase
	for _, workers := range []int{1, 2, 4} {
		for _, dc := range base {
			dc.opts.Parallelism = workers
			cases = append(cases, dc)
		}
	}
	return cases
}

// runDigest is the SHA-256 of the little-endian float64 bits of a run's
// output distribution.
func runDigest(dc digestCase) string {
	probs := dc.model.Run(dc.c, dc.opts)
	buf := make([]byte, 8*len(probs))
	for i, v := range probs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// parentDigests were recorded from Model.Run while every trajectory still
// seeded its own math/rand source; the per-stream tapes must reproduce
// them bit for bit.
var parentDigests = map[string]string{
	"manila":       "2b586ea369b49cfb82920568b92354cfc0191767b3142a1190c8d6d34128aa4e",
	"manila-shots": "6de38ff59764b164653ded573acddd27e3bf3bd5780dd4aed407b15bc4f68347",
	"uniform":      "ac5aad850845047e071468124c939b0db6a133a4b116fe8e6425a637461dcff7",
	"damping":      "4a19b50fbcc64ee7e2fd4dd3c1a542f87fc793b202caa98a4d026b550e6564a8",
}

// TestRunMatchesParentDigests pins Model.Run to the parent digests with a
// cold tape cache, a warm one, and one that has evicted every tape the
// digests use; the cache must stay within its bound throughout.
func TestRunMatchesParentDigests(t *testing.T) {
	check := func(state string) {
		t.Helper()
		for _, dc := range digestCases() {
			if got, want := runDigest(dc), parentDigests[dc.name]; got != want {
				t.Errorf("%s cache: %s/p=%d: digest %s, want %s", state, dc.name, dc.opts.Parallelism, got, want)
			}
		}
	}
	resetTapes()
	check("cold")
	check("warm")
	// Push more distinct streams through the cache than it can hold, so
	// every tape the digests use is evicted and recorded anew.
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	m := Uniform(0.05)
	for seed := int64(1000); seed < 1000+tapeBound/100+2; seed++ {
		m.Run(c, Options{Seed: seed, Trajectories: 100, Parallelism: 2})
		if n := cachedTapes(); n > tapeBound {
			t.Fatalf("cache holds %d tapes, bound %d", n, tapeBound)
		}
	}
	check("flooded")
}
