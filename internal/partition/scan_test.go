package partition

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuit"
)

// scanReference is the original map-based Scan, kept verbatim as the
// correctness oracle for the rewritten scan core and as the "before" side
// of BenchmarkPartitionScan.
func scanReference(c *circuit.Circuit, maxSize int) ([]Block, error) {
	type refBlock struct {
		qubits map[int]bool
		ops    []circuit.Op
	}
	fits := func(b *refBlock, qs []int) bool {
		extra := 0
		for _, q := range qs {
			if !b.qubits[q] {
				extra++
			}
		}
		return len(b.qubits)+extra <= maxSize
	}
	if maxSize < 1 {
		return nil, fmt.Errorf("partition: maxSize %d < 1", maxSize)
	}
	for _, op := range c.Ops {
		if len(op.Qubits) > maxSize {
			return nil, fmt.Errorf("partition: op %s spans %d qubits > block size %d",
				op.Name, len(op.Qubits), maxSize)
		}
	}
	var blocks []*refBlock
	lastTouch := make([]int, c.NumQubits)
	for i := range lastTouch {
		lastTouch[i] = -1
	}
	for _, op := range c.Ops {
		last := -1
		for _, q := range op.Qubits {
			if lastTouch[q] > last {
				last = lastTouch[q]
			}
		}
		placed := -1
		for b := len(blocks) - 1; b >= last && b >= 0; b-- {
			if fits(blocks[b], op.Qubits) {
				placed = b
				break
			}
		}
		if placed == -1 {
			blocks = append(blocks, &refBlock{qubits: map[int]bool{}})
			placed = len(blocks) - 1
		}
		blk := blocks[placed]
		for _, q := range op.Qubits {
			blk.qubits[q] = true
			lastTouch[q] = placed
		}
		blk.ops = append(blk.ops, op.Clone())
	}
	out := make([]Block, 0, len(blocks))
	for _, b := range blocks {
		qs := make([]int, 0, len(b.qubits))
		for q := range b.qubits {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		local := map[int]int{}
		for i, q := range qs {
			local[q] = i
		}
		bc := circuit.New(len(qs))
		for _, op := range b.ops {
			lq := make([]int, len(op.Qubits))
			for i, q := range op.Qubits {
				lq[i] = local[q]
			}
			if err := bc.Append(op.Name, lq, op.Params); err != nil {
				return nil, fmt.Errorf("partition: localize op %s: %w", op.Name, err)
			}
		}
		out = append(out, Block{Qubits: qs, Circuit: bc})
	}
	return out, nil
}

// sparseRandomCircuit exercises the scan's corner cases: idle qubits
// (never touched), qubits that go quiet early, and qubits that first
// appear late in the circuit.
func sparseRandomCircuit(n, ops int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	active := 2 + rng.Intn(n-1)
	if active > n {
		active = n
	}
	for i := 0; i < ops; i++ {
		// Occasionally widen the active window so fresh qubits appear
		// mid-circuit; qubits beyond the final window stay idle forever.
		if active < n && rng.Intn(8) == 0 {
			active++
		}
		switch rng.Intn(5) {
		case 0:
			c.H(rng.Intn(active))
		case 1:
			c.RZ(rng.Intn(active), rng.Float64()*2*math.Pi)
		case 2:
			c.T(rng.Intn(active))
		default:
			if active < 2 {
				c.H(0)
				continue
			}
			a, b := rng.Intn(active), rng.Intn(active)
			for b == a {
				b = rng.Intn(active)
			}
			c.CX(a, b)
		}
	}
	return c
}

func blocksEqual(t *testing.T, tag string, got, want []Block) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", tag, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if len(g.Qubits) != len(w.Qubits) {
			t.Fatalf("%s: block %d qubits %v, want %v", tag, i, g.Qubits, w.Qubits)
		}
		for j := range g.Qubits {
			if g.Qubits[j] != w.Qubits[j] {
				t.Fatalf("%s: block %d qubits %v, want %v", tag, i, g.Qubits, w.Qubits)
			}
		}
		if g.Circuit.String() != w.Circuit.String() {
			t.Fatalf("%s: block %d circuit:\n%s\nwant:\n%s", tag, i, g.Circuit, w.Circuit)
		}
	}
}

// TestScanMatchesReference pins the rewritten scan core (sorted-slice
// qubit sets, op-index storage) block-for-block to the historical
// map-based implementation.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8)
		ops := 1 + rng.Intn(120)
		maxSize := 2 + rng.Intn(3)
		c := sparseRandomCircuit(n, ops, rng)
		want, err := scanReference(c, maxSize)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Scan(c, maxSize)
		if err != nil {
			t.Fatal(err)
		}
		blocksEqual(t, fmt.Sprintf("trial %d (n=%d ops=%d bs=%d)", trial, n, ops, maxSize), got, want)
	}
}

// benchCircuit is a deep many-qubit workload: the scan's per-gate hot
// path dominates.
func benchCircuit(n, ops int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(99))
	c := circuit.New(n)
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.RZ(rng.Intn(n), rng.Float64()*2*math.Pi)
		default:
			a, b := rng.Intn(n), rng.Intn(n)
			for b == a {
				b = rng.Intn(n)
			}
			c.CX(a, b)
		}
	}
	return c
}

func BenchmarkPartitionScan(b *testing.B) {
	c := benchCircuit(24, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(c, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionScanReference is the pre-PR map-based partitioner on
// the same workload: the "before" row of the scan hot-path fix.
func BenchmarkPartitionScanReference(b *testing.B) {
	c := benchCircuit(24, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanReference(c, 3); err != nil {
			b.Fatal(err)
		}
	}
}
