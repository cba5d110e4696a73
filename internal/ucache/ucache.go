// Package ucache memoizes approximate-synthesis results by target unitary.
// Real circuits repeat structure — Trotter steps, mirrored subcircuits,
// repeated ansatz layers — so the QUEST pipeline keeps re-synthesizing the
// same (or nearly the same) block unitary. Synthesis costs seconds per
// block; a cache lookup costs a hash of the target matrix.
//
// Keys are global-phase invariant: the target is rotated so its
// largest-magnitude entry becomes positive real, entries are quantized
// to a grid no finer than the cache tolerance, and the quantized bits
// are hashed (FNV-1a) together with a fingerprint of the canonical
// synthesis options. Two targets that differ only by a global phase, or
// by less than the quantization grid, map to the same bucket; entries in
// a bucket are verified against the requested target before a result is
// returned.
//
// The cache has two matching modes:
//
//   - strict (tolerance 0, the default): only a bit-identical target
//     reuses an entry. Synthesis is deterministic, so a strict hit
//     returns exactly what re-running the search would have produced —
//     pipelines stay bit-reproducible for any worker count no matter
//     which worker populated the entry first.
//   - tolerance (tolerance > 0): targets equal up to a global phase
//     reuse an entry verbatim (the HS distance is phase-invariant), and
//     targets within the tolerance reuse it with inflated distances.
//     More hits, but when two blocks are near-identical rather than
//     identical, which one's synthesis lands in the cache depends on
//     completion order — reported distances remain valid bounds either
//     way, but runs are only reproducible for a fixed worker count.
//
// Correctness (QUEST Sec. 3.8): the pipeline's full-circuit distance
// bound is the sum of reported per-block distances, so a cache hit must
// never under-report. An exact hit (stored target equals the request
// bit-for-bit) returns the stored distances verbatim. A near hit within
// the tolerance returns distances inflated by d(T, T′), the HS distance
// between the stored and requested targets: the HS process distance is
// the sine of the Fubini-Study angle and satisfies the triangle
// inequality, so for every candidate V,
//
//	d(V, T′) ≤ d(V, T) + d(T, T′),
//
// and the inflated value remains a true upper bound — a hit can only
// tighten, never loosen, the Sec. 3.8 bound.
//
// Concurrent lookups of the same key are collapsed into one synthesis
// call (per-key singleflight); errors are never cached.
package ucache

import (
	"container/list"
	"context"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/synth"
)

// DefaultCapacity is the entry bound of caches created with New(0, _).
const DefaultCapacity = 256

// DefaultTolerance is the suggested match tolerance for tolerance-mode
// caches (New's tol argument); strict-mode caches (tol <= 0) quantize
// keys at minGrid instead.
const DefaultTolerance = 1e-9

// minGrid floors the quantization grid so that a zero/tiny tolerance
// still buckets targets that differ only in the last few float bits.
const minGrid = 1e-12

// exactTol is the per-entry threshold below which a stored target is
// treated as identical to the request up to a global phase: distances
// are returned verbatim (the HS distance is phase-invariant). It sits
// far above per-entry float rounding (~1e-16) and far below any
// physically distinct target, and is checked entrywise because the
// direct HS distance d = sqrt(1-x) loses half the mantissa near x = 1
// (its noise floor is ~1e-8, which would misclassify identical targets
// as near hits).
const exactTol = 1e-12

// Stats counts cache activity. Hits include lookups served by a
// concurrent in-flight synthesis of the same key.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Sub returns s - prev, the activity between two snapshots. If any
// counter in s is smaller than in prev, the counters were reset between
// the snapshots (e.g. the cache was reopened) and an unsigned subtraction
// would wrap to a huge bogus delta — in that case s itself is returned,
// the activity since the reset.
func (s Stats) Sub(prev Stats) Stats {
	if s.Hits < prev.Hits || s.Misses < prev.Misses || s.Evictions < prev.Evictions {
		return s
	}
	return Stats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Evictions: s.Evictions - prev.Evictions,
	}
}

type entry struct {
	key    uint64
	target *linalg.Matrix
	res    synth.Result
}

// flight is one in-progress synthesis shared by concurrent callers.
type flight struct {
	done   chan struct{}
	target *linalg.Matrix
	res    synth.Result
	err    error
}

// Cache is a bounded, concurrency-safe synthesis memoizer. The zero
// value is not usable; call New.
type Cache struct {
	mu      sync.Mutex
	cap     int
	tol     float64
	grid    float64
	ll      *list.List // front = most recently used; values are *entry
	buckets map[uint64][]*list.Element
	flights map[uint64]*flight
	stats   Stats
	disk    *diskStore // nil for memory-only caches; see OpenDisk
}

// New returns a cache bounded to capacity entries with the given match
// tolerance. Capacity <= 0 selects DefaultCapacity. Tolerance <= 0
// selects strict matching (only targets identical up to a global phase
// reuse an entry — the reproducible mode); a positive tolerance enables
// near-hit reuse with distance inflation (see the package comment,
// DefaultTolerance is the suggested value).
func New(capacity int, tol float64) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if tol < 0 {
		tol = 0
	}
	return &Cache{
		cap:     capacity,
		tol:     tol,
		grid:    math.Max(tol, minGrid),
		ll:      list.New(),
		buckets: map[uint64][]*list.Element{},
		flights: map[uint64]*flight{},
	}
}

var (
	sharedOnce sync.Once
	shared     *Cache
)

// Shared returns the process-wide default cache (DefaultCapacity,
// strict matching), created on first use.
func Shared() *Cache {
	sharedOnce.Do(func() { shared = New(0, 0) })
	return shared
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Synthesize is SynthesizeCtx with a background context.
func (c *Cache) Synthesize(target *linalg.Matrix, opts synth.Options) (synth.Result, bool, error) {
	return c.SynthesizeCtx(context.Background(), target, opts)
}

// SynthesizeCtx returns a synthesis result for the target, reusing a
// cached result when one matches the target (up to global phase, within
// the cache tolerance) under the same canonical options. The boolean
// reports whether the result came from the cache (or a shared in-flight
// call). Results are deep copies; callers may mutate them freely.
// Errors are returned to every waiting caller and never cached.
func (c *Cache) SynthesizeCtx(ctx context.Context, target *linalg.Matrix, opts synth.Options) (synth.Result, bool, error) {
	n := 0
	for 1<<n < target.Rows {
		n++
	}
	copts := opts.Canonical(n)
	key := c.key(target, copts)

	var f *flight
	for f == nil {
		c.mu.Lock()
		if res, ok := c.lookup(key, target); ok {
			c.stats.Hits++
			c.mu.Unlock()
			return res, true, nil
		}
		prev, inflight := c.flights[key]
		if !inflight {
			f = &flight{done: make(chan struct{}), target: target.Copy()}
			c.flights[key] = f
			c.stats.Misses++
			c.mu.Unlock()
			break
		}
		c.mu.Unlock()
		select {
		case <-prev.done:
		case <-ctx.Done():
			return synth.Result{}, false, ctx.Err()
		}
		if prev.err != nil {
			return synth.Result{}, false, prev.err
		}
		if c.tol <= 0 && phaseAlignedDiff(prev.target, target) > exactTol {
			// Strict mode: the winner synthesized a different target that
			// merely shares our quantized key. Loop and synthesize our own
			// (the winner's entry is in the cache now, so the re-lookup
			// misses and we claim the flight slot).
			continue
		}
		// The winner's target matches ours (exactly in strict mode, within
		// the tolerance otherwise) — adjust like a cache hit.
		res := adjustedClone(prev.res, prev.target, target)
		c.mu.Lock()
		c.stats.Hits++
		c.mu.Unlock()
		return res, true, nil
	}

	res, err := synth.SynthesizeCtx(ctx, target, copts)
	// The caller owns (and mutates) the live res, so waiters must clone
	// from an immutable snapshot — the same one the cache stores; lookups
	// and waiters only ever deep-copy it.
	var stored synth.Result
	if err == nil {
		stored = cloneResult(res)
	}
	f.res, f.err = stored, err

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.insert(key, f.target, stored)
	}
	c.mu.Unlock()
	close(f.done)
	return res, false, err
}

// lookup scans the key's bucket for a stored target matching the request
// and returns an adjusted deep copy of its result. Caller holds c.mu.
func (c *Cache) lookup(key uint64, target *linalg.Matrix) (synth.Result, bool) {
	for _, el := range c.buckets[key] {
		e := el.Value.(*entry)
		if e.target.Rows != target.Rows || e.target.Cols != target.Cols {
			continue
		}
		if phaseAlignedDiff(e.target, target) <= exactTol {
			c.ll.MoveToFront(el)
			return cloneResult(e.res), true
		}
		if c.tol <= 0 {
			continue // strict mode: exact (up-to-phase) matches only
		}
		if d := linalg.HSDistance(e.target, target); d <= c.tol {
			c.ll.MoveToFront(el)
			return inflatedClone(e.res, d), true
		}
	}
	return synth.Result{}, false
}

// insert stores a result (already deep-copied) and evicts the least
// recently used entries beyond capacity. Caller holds c.mu. Disk-backed
// caches journal the entry and compact the journal when it outgrows twice
// the capacity (c.disk is still nil while OpenDisk replays the journal,
// so loading never re-journals).
func (c *Cache) insert(key uint64, target *linalg.Matrix, res synth.Result) {
	if c.disk != nil {
		c.disk.appendRecord(key, target, res)
	}
	el := c.ll.PushFront(&entry{key: key, target: target, res: res})
	c.buckets[key] = append(c.buckets[key], el)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		e := back.Value.(*entry)
		lst := c.buckets[e.key]
		for i, bel := range lst {
			if bel == back {
				lst = append(lst[:i], lst[i+1:]...)
				break
			}
		}
		if len(lst) == 0 {
			delete(c.buckets, e.key)
		} else {
			c.buckets[e.key] = lst
		}
		c.stats.Evictions++
	}
	c.maybeCompact()
}

// adjustedClone returns a deep copy of res adjusted from the stored
// target to the requested one: verbatim when they are bit-identical,
// distance-inflated otherwise.
func adjustedClone(res synth.Result, stored, requested *linalg.Matrix) synth.Result {
	if phaseAlignedDiff(stored, requested) <= exactTol {
		return cloneResult(res)
	}
	return inflatedClone(res, linalg.HSDistance(stored, requested))
}

// phaseAlignedDiff returns the largest entrywise difference between a
// and b after removing the global phase that best aligns a to b.
func phaseAlignedDiff(a, b *linalg.Matrix) float64 {
	t := linalg.HSInner(a, b)
	mag := math.Hypot(real(t), imag(t))
	p := complex(1, 0)
	if mag > 0 {
		p = t / complex(mag, 0)
	}
	worst := 0.0
	for i := range a.Data {
		d := a.Data[i]*p - b.Data[i]
		if m := math.Hypot(real(d), imag(d)); m > worst {
			worst = m
		}
	}
	return worst
}

// cloneResult deep-copies a synthesis result so cached state and caller
// state never alias (internal/pipeline truncates Candidates in place).
func cloneResult(r synth.Result) synth.Result {
	out := r
	out.Candidates = make([]synth.Candidate, len(r.Candidates))
	for i, cand := range r.Candidates {
		cand.Circuit = cand.Circuit.Clone()
		out.Candidates[i] = cand
	}
	out.Best.Circuit = out.Best.Circuit.Clone()
	return out
}

// inflatedClone deep-copies a result with every reported distance
// increased by delta (the stored-to-requested target distance), keeping
// the distances valid upper bounds via the triangle inequality.
func inflatedClone(r synth.Result, delta float64) synth.Result {
	out := cloneResult(r)
	for i := range out.Candidates {
		out.Candidates[i].Distance += delta
	}
	out.Best.Distance += delta
	return out
}

// key hashes the phase-normalized, grid-quantized target together with
// the canonical options fingerprint.
func (c *Cache) key(target *linalg.Matrix, copts synth.Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	wf := func(v float64) { wu(math.Float64bits(v)) }

	wu(uint64(target.Rows))
	wu(uint64(target.Cols))
	phase := phaseFactor(target)
	for _, v := range target.Data {
		w := v * phase
		wu(uint64(int64(math.Round(real(w) / c.grid))))
		wu(uint64(int64(math.Round(imag(w) / c.grid))))
	}

	// Options fingerprint: every knob that steers the search. Threshold
	// is skipped under HarvestAll, where it only gates early termination
	// that HarvestAll disables — so ε-sweeps over the same blocks hit.
	if !copts.HarvestAll {
		wf(copts.Threshold)
	}
	wu(uint64(int64(copts.MaxCNOTs)))
	wu(uint64(int64(copts.Beam)))
	wu(uint64(int64(copts.ReseedEvery)))
	wu(uint64(int64(copts.Restarts)))
	wu(uint64(int64(copts.KeepPerDepth)))
	if copts.HarvestAll {
		wu(1)
	} else {
		wu(0)
	}
	wu(uint64(copts.Seed))
	wu(uint64(int64(copts.Strategy)))
	wu(uint64(int64(copts.NodeBudget)))
	wu(uint64(len(copts.CouplingPairs)))
	for _, p := range copts.CouplingPairs {
		wu(uint64(int64(p[0])))
		wu(uint64(int64(p[1])))
	}
	return h.Sum64()
}

// phaseFactor returns the unit complex number that rotates the target's
// largest-magnitude entry (lowest index on ties) onto the positive real
// axis, removing the physically meaningless global phase from the key.
func phaseFactor(m *linalg.Matrix) complex128 {
	best := 0
	bestMag := 0.0
	for i, v := range m.Data {
		mag := real(v)*real(v) + imag(v)*imag(v)
		if mag > bestMag {
			bestMag = mag
			best = i
		}
	}
	v := m.Data[best]
	mag := math.Hypot(real(v), imag(v))
	if mag == 0 {
		return 1
	}
	return complex(real(v)/mag, -imag(v)/mag)
}

// TargetKey returns the phase-invariant content hash of a unitary at the
// default quantization grid, with no options mixed in. The pipeline uses
// it to derive per-block synthesis seeds from block content, so identical
// blocks run identical searches (and therefore share cache entries).
func TargetKey(m *linalg.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	wu(uint64(m.Rows))
	wu(uint64(m.Cols))
	phase := phaseFactor(m)
	for _, v := range m.Data {
		w := v * phase
		wu(uint64(int64(math.Round(real(w) / DefaultTolerance))))
		wu(uint64(int64(math.Round(imag(w) / DefaultTolerance))))
	}
	return h.Sum64()
}
