// Package partition implements QUEST's STEP 1 (Sec. 3.3): splitting a
// large circuit into blocks of at most maxSize qubits with a single
// front-to-back scan, the scalable "scan partitioner" the paper adopts
// from BQSKit. Blocks are emitted in topological order: executing the
// blocks sequentially reproduces the original circuit's unitary.
//
// Scan materializes the whole partition in one pass. The scan is a
// negligible share of a compilation next to per-block synthesis, so
// nothing downstream gains from receiving blocks any earlier.
package partition

import (
	"fmt"

	"repro/internal/circuit"
)

// Block is one partition: a sub-circuit on a small set of global qubits.
type Block struct {
	// Qubits lists the global qubit indices the block acts on, sorted
	// ascending. Local qubit i of Circuit corresponds to Qubits[i].
	Qubits []int
	// Circuit is the block's operations on local qubits 0..len(Qubits)-1.
	Circuit *circuit.Circuit
}

// CNOTCount returns the block's CNOT-equivalent gate count.
func (b Block) CNOTCount() int { return b.Circuit.CNOTCount() }

// openBlock accumulates op indices during the scan. Its qubit set is a
// sorted slice, not a map: blocks hold at most maxSize (≤ a handful of)
// qubits, so membership is a short linear scan and inserting stays
// allocation-free after the initial maxSize-capacity grab. This is the
// partitioner's per-gate hot path — see BenchmarkPartitionScan.
type openBlock struct {
	qubits []int // sorted ascending
	ops    []int // indices into the scanned circuit's Ops
}

// has reports whether q is in the block's qubit set.
func (b *openBlock) has(q int) bool {
	for _, p := range b.qubits {
		if p == q {
			return true
		}
	}
	return false
}

// fits reports whether adding the op's qubits keeps the block within
// maxSize.
func (b *openBlock) fits(qs []int, maxSize int) bool {
	extra := 0
	for _, q := range qs {
		if !b.has(q) {
			extra++
		}
	}
	return len(b.qubits)+extra <= maxSize
}

// add inserts q into the sorted qubit set if absent.
func (b *openBlock) add(q int) {
	i := 0
	for i < len(b.qubits) && b.qubits[i] < q {
		i++
	}
	if i < len(b.qubits) && b.qubits[i] == q {
		return
	}
	b.qubits = append(b.qubits, 0)
	copy(b.qubits[i+1:], b.qubits[i:])
	b.qubits[i] = q
}

// scanner runs Scan's placement loop.
type scanner struct {
	c         *circuit.Circuit
	maxSize   int
	blocks    []*openBlock
	lastTouch []int // lastTouch[q] = index of the last block touching q
}

func newScanner(c *circuit.Circuit, maxSize int) (*scanner, error) {
	if maxSize < 1 {
		return nil, fmt.Errorf("partition: maxSize %d < 1", maxSize)
	}
	s := &scanner{
		c:         c,
		maxSize:   maxSize,
		lastTouch: make([]int, c.NumQubits),
	}
	for i := range s.lastTouch {
		s.lastTouch[i] = -1
	}
	for _, op := range c.Ops {
		if len(op.Qubits) > maxSize {
			return nil, fmt.Errorf("partition: op %s spans %d qubits > block size %d",
				op.Name, len(op.Qubits), maxSize)
		}
	}
	return s, nil
}

// place assigns op index i to a block: the latest open block that can
// hold it and is not ordered before another block touching the op's
// qubits; a new block is opened when none fits. This preserves all
// per-qubit gate orderings, so sequential reassembly is exact.
func (s *scanner) place(i int) {
	op := s.c.Ops[i]
	last := -1
	for _, q := range op.Qubits {
		if s.lastTouch[q] > last {
			last = s.lastTouch[q]
		}
	}
	placed := -1
	for b := len(s.blocks) - 1; b >= last && b >= 0; b-- {
		if s.blocks[b].fits(op.Qubits, s.maxSize) {
			placed = b
			break
		}
	}
	if placed == -1 {
		s.blocks = append(s.blocks, &openBlock{qubits: make([]int, 0, s.maxSize)})
		placed = len(s.blocks) - 1
	}
	blk := s.blocks[placed]
	for _, q := range op.Qubits {
		blk.add(q)
		s.lastTouch[q] = placed
	}
	blk.ops = append(blk.ops, i)
}

// localize converts open block b into its returned Block form, remapping
// global qubits to local indices 0..len(qubits)-1 (ascending order).
func (s *scanner) localize(b int) (Block, error) {
	blk := s.blocks[b]
	qs := append([]int(nil), blk.qubits...)
	bc := circuit.New(len(qs))
	var lq [4]int // registered gates touch ≤3 qubits; stack buffer covers them
	for _, oi := range blk.ops {
		op := s.c.Ops[oi]
		local := lq[:0]
		if len(op.Qubits) > len(lq) {
			local = make([]int, 0, len(op.Qubits))
		}
		for _, q := range op.Qubits {
			for i, g := range qs {
				if g == q {
					local = append(local, i)
					break
				}
			}
		}
		if err := bc.Append(op.Name, local, op.Params); err != nil {
			return Block{}, fmt.Errorf("partition: localize op %s: %w", op.Name, err)
		}
	}
	return Block{Qubits: qs, Circuit: bc}, nil
}

// Scan partitions the circuit into blocks of at most maxSize qubits.
// Each operation is placed in the latest open block that can hold it and
// that is not ordered before another block touching the op's qubits; a new
// block is opened when none fits. This preserves all per-qubit gate
// orderings, so sequential reassembly is exact.
func Scan(c *circuit.Circuit, maxSize int) ([]Block, error) {
	s, err := newScanner(c, maxSize)
	if err != nil {
		return nil, err
	}
	for i := range c.Ops {
		s.place(i)
	}
	out := make([]Block, 0, len(s.blocks))
	for b := range s.blocks {
		blk, err := s.localize(b)
		if err != nil {
			return nil, err
		}
		out = append(out, blk)
	}
	return out, nil
}

// Reassemble rebuilds a full circuit on n qubits from blocks in order,
// mapping each block's local qubits back to its global qubits.
func Reassemble(n int, blocks []Block) (*circuit.Circuit, error) {
	c := circuit.New(n)
	for i, b := range blocks {
		if err := c.AppendCircuit(b.Circuit, b.Qubits); err != nil {
			return nil, fmt.Errorf("partition: reassemble block %d: %w", i, err)
		}
	}
	return c, nil
}
