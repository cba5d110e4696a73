package noise

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/circuit"
)

// digestCase is one pinned Model.Run configuration, or a Device.Run one
// when device is set.
type digestCase struct {
	name   string
	model  Model
	c      *circuit.Circuit
	opts   Options
	device *Device
}

func digestCases() []digestCase {
	c5 := benchCircuit(5, 80)
	c3 := benchCircuit(3, 40)
	damped := Model{OneQubitError: 0.004, TwoQubitError: 0.03, ReadoutError: 0.01, DampingError: 0.02}
	base := []digestCase{
		{"manila", Manila().Model, c5, Options{Seed: 1}, nil},
		{"manila-shots", Manila().Model, c5, Options{Seed: 7, Trajectories: 60, Shots: 1024}, nil},
		{"uniform", Uniform(0.01), c5, Options{Seed: 3, Trajectories: 123}, nil},
		{"damping", damped, c3, Options{Seed: 11, Trajectories: 77}, nil},
		// Nearly every trajectory leaves the error-free path.
		{"uniform-0.2", Uniform(0.2), c5, Options{Seed: 5, Trajectories: 90}, nil},
		{"one-qubit-only", Model{OneQubitError: 0.03}, c5, Options{Seed: 9, Trajectories: 70}, nil},
		// Routed onto a device whose model puts damping on the path.
		{"quito-device", Model{}, c5, Options{Seed: 13, Trajectories: 64}, QuitoT()},
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
func runDigest(t *testing.T, dc digestCase) string {
	t.Helper()
	var probs []float64
	if dc.device == nil {
		probs = dc.model.Run(dc.c, dc.opts)
	} else {
		var err error
		if probs, err = dc.device.Run(dc.c, dc.opts); err != nil {
			t.Fatalf("%s: %v", dc.name, err)
		}
	}
	buf := make([]byte, 8*len(probs))
	for i, v := range probs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// parentDigests were recorded while every trajectory ran every op from
// |0...0> (the first four also while every trajectory seeded its own
// math/rand source); the error-free path and the per-stream tapes must
// reproduce them bit for bit.
var parentDigests = map[string]string{
	"manila":         "2b586ea369b49cfb82920568b92354cfc0191767b3142a1190c8d6d34128aa4e",
	"manila-shots":   "6de38ff59764b164653ded573acddd27e3bf3bd5780dd4aed407b15bc4f68347",
	"uniform":        "ac5aad850845047e071468124c939b0db6a133a4b116fe8e6425a637461dcff7",
	"damping":        "4a19b50fbcc64ee7e2fd4dd3c1a542f87fc793b202caa98a4d026b550e6564a8",
	"uniform-0.2":    "7f316478d11c1c6115994bd58ff989d3c36f487cc63b367871d1cf3a4cb98746",
	"one-qubit-only": "180304c8cb88ad0dc167e66786701799536497506d94940ec2ab30c142834b15",
	"quito-device":   "1b60cb655626f1a8a4f869ffac2bb3649fa2c1b77f259f28f97517e9a134ab9a",
}

// TestRunMatchesParentDigests pins Model.Run to the parent digests with a
// cold tape cache, a warm one, and one that has evicted every tape the
// digests use; the cache must stay within its bound throughout.
func TestRunMatchesParentDigests(t *testing.T) {
	check := func(state string) {
		t.Helper()
		for _, dc := range digestCases() {
			if got, want := runDigest(t, dc), parentDigests[dc.name]; got != want {
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

// TestRunMatchesParentDigestsFromCheckpoints shrinks the checkpoint
// budget so that trajectories resume from a checkpoint before their
// firing op (or from |0...0> alone), and pins the same digests.
func TestRunMatchesParentDigestsFromCheckpoints(t *testing.T) {
	defer func(b int) { checkpointBytes = b }(checkpointBytes)
	for _, states := range []int{0, 1, 3, 7} {
		// Budgets are in 5-qubit states; the 3-qubit damping case gets
		// four times as many of its own.
		checkpointBytes = states * 16 << 5
		for _, dc := range digestCases() {
			if got, want := runDigest(t, dc), parentDigests[dc.name]; got != want {
				t.Errorf("budget %d B: %s/p=%d: digest %s, want %s", checkpointBytes, dc.name, dc.opts.Parallelism, got, want)
			}
		}
	}
}
