package par

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
)

// Pool is a bounded work-slot scheduler shared across concurrent pipeline
// runs. A per-run ForEachErr sizes its worker count to one circuit: small
// circuits undersubscribe the machine (a 2-block circuit keeps 2 of 16
// cores busy) and N concurrent runs oversubscribe it N-fold. A Pool fixes
// both: every run draws per-index slots from one shared budget of
// `workers` concurrently-running units, so a corpus compilation or a
// questd worker fleet keeps exactly `workers` blocks in flight machine-wide
// regardless of how the blocks are distributed across circuits.
//
// Fairness: slots are released after every index, and blocked acquirers
// wake in FIFO order (Go channel semantics), so interleaved runs progress
// round-robin-ish; no run can hold slots across indices and starve the
// rest. Determinism: scheduling order is NOT deterministic, but every
// caller follows the package rule — fn(i) writes only slot i of pre-sized
// storage — so results are bit-identical for any pool size, any number of
// concurrent runs, and any interleaving. Tests assert both properties.
//
// Nesting rule: fn must not itself acquire from the same Pool (directly
// or transitively) with Acquire or ForEachErr. All slots could then be
// held by callers blocked on their own children — deadlock. The one
// pool operation allowed under a slot is TryAcquire: it never waits, so
// it can only borrow a slot that is idle at that instant (block
// synthesis lends its optimizer runs to such slots, see PoolFrom).
// Other nested parallel loops (e.g. pairwise distance fills inside
// block synthesis) use the plain ForEach helpers, which spawn their own
// short-lived goroutines.
type Pool struct {
	slots chan struct{}
}

// NewPool returns a Pool with the given number of slots; workers <= 0
// selects runtime.NumCPU().
func NewPool(workers int) *Pool {
	workers = Workers(workers)
	p := &Pool{slots: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// Size returns the pool's slot count.
func (p *Pool) Size() int { return cap(p.slots) }

// Acquire blocks until a slot is free or ctx is done, returning the typed
// budget error in the latter case. Every successful Acquire must be paired
// with Release.
func (p *Pool) Acquire(ctx context.Context) error {
	// Fast path keeps an uncontended pool cheap; the ctx check first
	// preserves "never start work under an expired budget".
	if err := budget.Check(ctx); err != nil {
		return err
	}
	select {
	case <-p.slots:
		return nil
	default:
	}
	select {
	case <-p.slots:
		return nil
	case <-ctx.Done():
		return budget.Check(ctx)
	}
}

// TryAcquire takes a slot only if one is free right now and reports
// whether it did; it never waits. A true result must be paired with
// Release. Because it cannot block, it is the one pool operation code
// already running under a slot may use (see the nesting rule).
func (p *Pool) TryAcquire() bool {
	select {
	case <-p.slots:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by Acquire or TryAcquire.
func (p *Pool) Release() { p.slots <- struct{}{} }

type poolCtxKey struct{}

// PoolFrom returns the Pool whose ForEachErr handed ctx to its fn, or
// nil when ctx does not come from a pool slot. Code running under a
// slot uses it to lend work to idle slots with TryAcquire; it must not
// call Acquire or ForEachErr on the result.
func PoolFrom(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolCtxKey{}).(*Pool)
	return p
}

// ForEachErr is par.ForEachErr drawing its concurrency from the shared
// pool instead of a private worker count: fn(ctx, i) runs for every i in
// [0, n), each index under one pool slot, with the same error-by-lowest-
// index, cancellation, and panic-isolation semantics. At most Size()
// indices across ALL concurrent callers run at once. The ctx handed to
// fn carries the pool (see PoolFrom).
func (p *Pool) ForEachErr(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if err := budget.Check(ctx); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	gctx := context.WithValue(cctx, poolCtxKey{}, p)

	spawn := p.Size()
	if spawn > n {
		spawn = n
	}
	if spawn <= 1 {
		for i := 0; i < n; i++ {
			if err := budget.Check(ctx); err != nil {
				return err
			}
			if err := p.Acquire(gctx); err != nil {
				return err
			}
			err := protect(gctx, 0, i, fn)
			p.Release()
			if err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	errs := make([]error, n) // slot i records fn(gctx, i)'s failure
	wg.Add(spawn)
	for w := 0; w < spawn; w++ {
		go func(worker int) {
			defer wg.Done()
			for gctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := p.Acquire(gctx); err != nil {
					// gctx is done: either the run's budget expired (the
					// final budget.Check reports it) or a sibling failed
					// (its error wins by index order).
					return
				}
				err := protect(gctx, worker, i, fn)
				p.Release()
				if err != nil {
					errs[i] = err
					cancel() // stop the group; siblings drain at their next check
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return FirstErr(ctx, errs)
}
