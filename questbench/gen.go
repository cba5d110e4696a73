package main

import (
	"fmt"
	"math/rand"

	quest "repro"
	"repro/internal/algos"
	"repro/internal/circuit"
)

// instance is one generated input: the QASM text handed to the program and
// the labels the report uses.
type instance struct {
	name   string
	family string
	qubits int
	qasm   string
}

// stratum is one (family, size) cell of a round of generated instances.
type stratum struct {
	family string
	qubits int
}

// Families of the paper's Table 1 with many distinct instances at five
// qubits or fewer. adder and multiplier have four each at that size, so
// they appear only in corpus-warm (adder_8, adder_18). hlf, cliffordt and
// qft at 4–5 qubits and qaoa and vqe at 4 qubits almost always partition
// into rotation-only blocks (see rotationOnlyBlock), so they run at the
// sizes where most draws do not.
var (
	spinFamilies   = []string{"tfim", "xy", "heisenberg"}
	randomFamilies = []string{"qaoa", "vqe"}
	smallFamilies  = []string{"hlf", "cliffordt", "qft"}
)

// compileRound returns the strata of one compile-cold round, in the order
// they run: the spin chains at 3, 4 and 5 qubits, qaoa and vqe at 3 and 5,
// and hlf, cliffordt and qft at 3. The strata are fixed and only the
// instances inside them are drawn from the seed, so every seed runs the
// same op mix.
func compileRound() []stratum {
	var out []stratum
	for _, n := range []int{3, 4, 5} {
		for _, f := range spinFamilies {
			out = append(out, stratum{f, n})
		}
	}
	for _, n := range []int{3, 5} {
		for _, f := range randomFamilies {
			out = append(out, stratum{f, n})
		}
	}
	for _, f := range smallFamilies {
		out = append(out, stratum{f, 3})
	}
	return out
}

// serveStratum returns the stratum of the k-th fresh serve circuit: the
// five families that fill the 5-qubit Manila device without the slow
// path, in turn.
func serveStratum(k int) stratum {
	all := append(append([]string(nil), spinFamilies...), randomFamilies...)
	return stratum{all[k%len(all)], 5}
}

// generator draws distinct instances from a seed.
type generator struct {
	rng   *rand.Rand
	seen  map[string]bool
	draws int
	// drawn counts the draws of each stratum; swap holds, per stratum, the
	// seeded order of the current pair of levels, and bins the time-step
	// half each level takes in the first pair of the current cycle.
	drawn map[stratum]int
	swap  map[stratum]bool
	bins  map[stratum][2]int
}

func newGenerator(seed int64) *generator {
	return &generator{
		rng:   rand.New(rand.NewSource(seed)),
		seen:  map[string]bool{},
		drawn: map[stratum]int{},
		swap:  map[stratum]bool{},
		bins:  map[stratum][2]int{},
	}
}

// level returns the size level (1 or 2) of the stratum's next draw: Trotter
// steps for the spin chains, ansatz layers for qaoa and vqe, depth 4 or 8
// for cliffordt. Consecutive draws of a stratum come in pairs holding one
// of each level in seeded order, so whole pairs of rounds run the same
// amount of work for every seed. It also returns the half of the time-step
// range (0: 0.08–0.12, 1: 0.12–0.16) the draw takes its time step from:
// in every cycle of four draws each level takes each half once, in seeded
// order. A spin chain's synthesis time grows steeply with its time step,
// so without that a seed drawing mostly large steps would run a heavier
// mix than one drawing small steps.
func (g *generator) level(s stratum) (level, bin int) {
	m := g.drawn[s]
	g.drawn[s] = m + 1
	if m%4 == 0 {
		g.bins[s] = [2]int{g.rng.Intn(2), g.rng.Intn(2)}
	}
	if m%2 == 0 {
		g.swap[s] = g.rng.Intn(2) == 1
	}
	level = 1
	if (m%2 == 1) != g.swap[s] {
		level = 2
	}
	return level, g.bins[s][level-1] ^ (m / 2 % 2)
}

// draw returns an instance of the stratum distinct from every instance
// this generator has returned before and free of rotation-only 3-qubit
// blocks. A stratum with few instances (hlf at 3 qubits has 64) can run
// out on a fast machine; after 64 draws the last one is returned even if
// it repeats, which still compiles cold because every compile-cold op gets
// a fresh synthesis cache.
func (g *generator) draw(s stratum) (instance, error) {
	level, bin := g.level(s)
	var (
		name, src string
		c         *circuit.Circuit
	)
	for attempt := 0; attempt < 64; attempt++ {
		n, cand, err := g.build(s, level, bin)
		if err != nil {
			return instance{}, err
		}
		if rotationOnlyBlock(cand) {
			continue
		}
		name, c, src = n, cand, quest.WriteQASM(cand)
		if !g.seen[src] {
			break
		}
	}
	if src == "" {
		return instance{}, fmt.Errorf("64 draws of %s-%d all had a rotation-only block", s.family, s.qubits)
	}
	g.seen[src] = true
	// The draw number keeps names unique: labels round their parameters.
	g.draws++
	name = fmt.Sprintf("%s#%d", name, g.draws)
	return instance{name: name, family: s.family, qubits: c.NumQubits, qasm: src}, nil
}

// rotationOnlyBlock reports whether a scan partition of the circuit into
// blocks of at most 3 qubits, the pipeline's default block size, has a
// 3-qubit block without CNOTs. Synthesis spends 2–7 s on such a block,
// against milliseconds on a typical one; whether a draw of qaoa, vqe, hlf,
// cliffordt or qft has one is close to a coin flip, so a seed would decide
// how much work a run does. Such draws are redrawn; the path is measured
// deterministically by corpus-warm's cold set-up.
//
// The scan is the benchmark's own copy of the scan rule the paper adopts
// (Sec. 3.3): each gate joins the latest block that can hold it and is not
// ordered before another block touching its qubits, else opens a new one.
// It does not call the program's partitioner, so the inputs depend on the
// seed alone, whatever later changes make of the partitioner.
func rotationOnlyBlock(c *circuit.Circuit) bool {
	type block struct {
		qubits []int
		cnots  int
	}
	has := func(b *block, q int) bool {
		for _, p := range b.qubits {
			if p == q {
				return true
			}
		}
		return false
	}
	var blocks []*block
	last := make([]int, c.NumQubits)
	for q := range last {
		last[q] = -1
	}
	for _, op := range c.Ops {
		lo := -1
		for _, q := range op.Qubits {
			lo = max(lo, last[q])
		}
		placed := -1
		for b := len(blocks) - 1; b >= lo && b >= 0; b-- {
			extra := 0
			for _, q := range op.Qubits {
				if !has(blocks[b], q) {
					extra++
				}
			}
			if len(blocks[b].qubits)+extra <= 3 {
				placed = b
				break
			}
		}
		if placed < 0 {
			blocks = append(blocks, &block{})
			placed = len(blocks) - 1
		}
		blk := blocks[placed]
		for _, q := range op.Qubits {
			if !has(blk, q) {
				blk.qubits = append(blk.qubits, q)
			}
			last[q] = placed
		}
		blk.cnots += op.Spec().CNOTCost
	}
	for _, b := range blocks {
		if len(b.qubits) == 3 && b.cnots == 0 {
			return true
		}
	}
	return false
}

// build draws one circuit of the stratum at the given level: time step
// (within the given half of its range) and field for the spin chains, a
// basis-state input for QFT, and a generator seed for the random-graph and
// random-angle families.
func (g *generator) build(s stratum, level, bin int) (string, *circuit.Circuit, error) {
	n := s.qubits
	steps, layers := level, level
	dt := 0.08 + 0.04*float64(bin) + 0.04*g.rng.Float64()
	field := 0.8 + 0.4*g.rng.Float64()
	gseed := g.rng.Int63n(1 << 31)
	switch s.family {
	case "tfim":
		return fmt.Sprintf("tfim-%d-s%d-dt%.3f", n, steps, dt), algos.TFIM(n, steps, dt, 1, field), nil
	case "xy":
		return fmt.Sprintf("xy-%d-s%d-dt%.3f", n, steps, dt), algos.XY(n, steps, dt, 1), nil
	case "heisenberg":
		return fmt.Sprintf("heisenberg-%d-s%d-dt%.3f", n, steps, dt), algos.Heisenberg(n, steps, dt, 1, field), nil
	case "qft":
		// A seeded basis-state input (X gates) on seeded wires.
		c := circuit.New(n)
		prep := rand.New(rand.NewSource(gseed))
		input := prep.Intn(1 << n)
		for q := 0; q < n; q++ {
			if input>>q&1 == 1 {
				c.X(q)
			}
		}
		c.MustAppendCircuit(algos.QFT(n), prep.Perm(n))
		return fmt.Sprintf("qft-%d-g%d", n, gseed), c, nil
	case "qaoa":
		return fmt.Sprintf("qaoa-%d-l%d-g%d", n, layers, gseed), algos.QAOA(n, layers, gseed), nil
	case "vqe":
		return fmt.Sprintf("vqe-%d-l%d-g%d", n, layers, gseed), algos.VQE(n, layers, gseed), nil
	case "hlf":
		return fmt.Sprintf("hlf-%d-g%d", n, gseed), algos.HLF(n, gseed), nil
	case "cliffordt":
		depth := 4 * level
		return fmt.Sprintf("cliffordt-%d-l%d-g%d", n, depth, gseed), algos.CliffordT(n, depth, gseed), nil
	}
	return "", nil, fmt.Errorf("unknown family %q", s.family)
}
