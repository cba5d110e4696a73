package noise

import (
	"math/rand"
	"sync"
)

// Trajectory streams are replayed from shared tapes instead of being
// re-seeded per trajectory. Seeding a math/rand source runs a 607-word
// seeding loop (10–20 µs, one 5.4 KB allocation), while a device
// trajectory draws only a few dozen values; and every member of an
// ensemble, like every questd job at the default seed, runs the same
// streams streamSeed(S, 0..T-1). A tape records the output of one stream
// once, and every later trajectory on that stream reads it back.
//
// Replay is bit-identical to math/rand: a tape holds exactly the values
// rand.NewSource(seed) produces, and *rand.Rand derives Float64, Intn and
// every other draw except Uint64 from Int63 alone (Uint64 is replayed
// through Source64), so a rand.Rand over a replaySource yields the same
// draws as one over the seeded source.
const (
	// tapeBound is the most tapes the process-wide cache holds; the
	// oldest is evicted first. A run uses one tape per trajectory, so the
	// bound covers ten default-size (100-trajectory) seeds.
	tapeBound = 1024
	// tapeMaxLen is the most values one tape records. A trajectory that
	// draws more continues on a private generator, so a cached tape never
	// exceeds tapeMaxLen·8 bytes.
	tapeMaxLen = 4096
	// tapeGrow is the fewest values one extension of a tape records.
	tapeGrow = 64
)

// tape records the output of math/rand seeded with seed, extended on
// demand. vals only grows: a snapshot returned by upTo stays valid, and
// the elements it covers are never written again, so readers index it
// without the lock.
type tape struct {
	seed int64
	mu   sync.Mutex
	src  rand.Source64 // positioned just past vals; nil until the first extension and once vals is full
	vals []uint64      // raw Uint64 outputs; Int63 is the low 63 bits
}

// upTo returns a snapshot of the tape holding at least n values, for
// n ≤ tapeMaxLen; upTo(0) returns what is recorded so far.
func (tp *tape) upTo(n int) []uint64 {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if len(tp.vals) >= n {
		return tp.vals
	}
	if tp.src == nil {
		tp.src = rand.NewSource(tp.seed).(rand.Source64)
	}
	want := min(max(n, 2*len(tp.vals), tapeGrow), tapeMaxLen)
	if cap(tp.vals) < want {
		// Size the array exactly; snapshots keep the old one.
		tp.vals = append(make([]uint64, 0, want), tp.vals...)
	}
	for len(tp.vals) < want {
		tp.vals = append(tp.vals, tp.src.Uint64())
	}
	if len(tp.vals) == tapeMaxLen {
		tp.src = nil // the tape is complete; release the generator's state
	}
	return tp.vals
}

// tapeCache is a bounded, first-in-first-out map from stream seed to tape.
type tapeCache struct {
	mu    sync.Mutex
	tapes map[int64]*tape
	ring  [tapeBound]int64 // cached seeds in insertion order, oldest at next once full
	next  int
}

// streamTapes is the process-wide tape cache shared by every run. What it
// holds decides only how fast a stream's values are found, never what
// they are.
var streamTapes = &tapeCache{tapes: make(map[int64]*tape, tapeBound)}

// get returns the tape of seed, creating it (and evicting the oldest tape
// when the cache is full) if it is not cached. An evicted tape stays
// valid for the readers that already hold it.
func (tc *tapeCache) get(seed int64) *tape {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tp, ok := tc.tapes[seed]; ok {
		return tp
	}
	if len(tc.tapes) == tapeBound {
		delete(tc.tapes, tc.ring[tc.next])
	}
	tp := &tape{seed: seed}
	tc.tapes[seed] = tp
	tc.ring[tc.next] = seed
	tc.next = (tc.next + 1) % tapeBound
	return tp
}

// replaySource is a rand.Source64 that replays stream tapes: after
// Seed(s) it yields exactly what rand.NewSource(s) yields. One instance
// serves many trajectories in turn; it is not safe for concurrent use.
type replaySource struct {
	tape *tape
	buf  []uint64 // snapshot of tape.vals
	pos  int
	tail rand.Source64 // private generator for draws past tapeMaxLen
}

// Seed points the source at the start of seed's tape.
func (r *replaySource) Seed(seed int64) {
	r.tape = streamTapes.get(seed)
	r.buf = r.tape.upTo(0)
	r.pos = 0
	r.tail = nil
}

// Uint64 returns the next raw value of the stream.
func (r *replaySource) Uint64() uint64 {
	if r.pos < len(r.buf) {
		v := r.buf[r.pos]
		r.pos++
		return v
	}
	return r.extend()
}

// Int63 returns the next value of the stream as math/rand's source does.
func (r *replaySource) Int63() int64 {
	return int64(r.Uint64() & (1<<63 - 1))
}

// extend serves a draw past the end of the current snapshot: from a
// longer snapshot while the tape may still grow, then from a private
// generator fast-forwarded past the complete tape.
func (r *replaySource) extend() uint64 {
	if r.pos < tapeMaxLen {
		r.buf = r.tape.upTo(r.pos + 1)
		v := r.buf[r.pos]
		r.pos++
		return v
	}
	if r.tail == nil {
		r.tail = rand.NewSource(r.tape.seed).(rand.Source64)
		for i := 0; i < tapeMaxLen; i++ {
			r.tail.Uint64()
		}
	}
	return r.tail.Uint64()
}
