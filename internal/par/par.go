// Package par provides the small deterministic parallel-execution helper
// shared by the simulation substrate (noise trajectories, unitary column
// evolution, ensemble evaluation) and the core pipeline. The design rule,
// stated once here and relied on everywhere: a parallel loop must produce
// bit-identical results for every worker count. ForEach guarantees this
// mechanically — each index writes only its own slot — so callers only
// need a deterministic per-index function plus an index-ordered reduction.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
)

// Workers normalizes a parallelism knob: values <= 0 select
// runtime.NumCPU(), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// ForEach calls fn(i) for every i in [0, n) using at most `workers`
// concurrent goroutines (workers <= 0 selects runtime.NumCPU()) and
// returns when every call has finished. With one worker (or n <= 1) it
// runs inline with no goroutines. fn must be safe for concurrent
// invocation with distinct indices; determinism under any worker count is
// obtained by having fn(i) write only to slot i of pre-sized output
// storage and reducing in index order afterwards. A panic in any fn is
// re-raised in the caller after the remaining workers drain.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						panicked = r
						next.Store(int64(n)) // stop handing out work
					})
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// PanicError is a worker panic recovered by ForEachErr: the pipeline's
// alternative to crashing the whole process when one parallel unit dies.
// It records which worker goroutine and which loop index failed, the
// panic value, and the goroutine stack at the point of the panic.
type PanicError struct {
	// Worker is the worker goroutine index (0 for the inline path).
	Worker int
	// Index is the loop index whose fn call panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker %d: panic at index %d: %v", e.Worker, e.Index, e.Value)
}

// ForEachErr is ForEach for fallible work: it calls fn(ctx, i) for every
// i in [0, n) with at most `workers` goroutines and returns the first
// failure by index order. Three things distinguish it from ForEach:
//
//   - Cancellation: the loop stops handing out new indices as soon as
//     ctx is done, and returns the typed budget error (ErrDeadline or
//     ErrCancelled). A zero or negative n returns immediately (after the
//     ctx check) without spawning workers.
//   - Error propagation: the first fn error cancels the group context —
//     in-flight fn calls that honor ctx stop early — and is returned.
//     When several indices fail before the group drains, the error of
//     the lowest index wins, keeping the returned error deterministic;
//     a sibling's ErrCancelled caused by that group cancel is not a
//     failure of its own and never wins over the root cause (see
//     FirstErr).
//   - Panic isolation: a panic in fn is recovered and surfaced as a
//     *PanicError carrying the worker index and stack, instead of
//     crashing the process. A panic cancels the group like an error.
//
// Determinism of results follows the ForEach rule: fn(ctx, i) writes
// only to slot i of pre-sized storage.
func ForEachErr(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if err := budget.Check(ctx); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := budget.Check(ctx); err != nil {
				return err
			}
			if err := protect(gctx, 0, i, fn); err != nil {
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
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for gctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := protect(gctx, worker, i, fn); err != nil {
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

// FirstErr picks the error a group run under ctx reports from its
// per-index failure slots, where the first failure cancelled the group.
// While the parent ctx is live, a cancellation can only come from that
// group cancel — a sibling stopping because another index failed — so
// the lowest-index error that is not a cancellation wins. Once the
// parent ctx has expired, cancellations are real outcomes and the
// lowest-index error wins outright. Either way the choice depends only
// on the slots, not on which goroutine failed first. With no failure
// recorded, a parent ctx that expired mid-loop means indices were
// skipped, so the run is incomplete and reports it.
func FirstErr(ctx context.Context, errs []error) error {
	parentDone := ctx.Err() != nil
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if parentDone || !(errors.Is(err, budget.ErrCancelled) || errors.Is(err, context.Canceled)) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	return budget.Check(ctx)
}

// protect runs one fn call with panic recovery.
func protect(ctx context.Context, worker, index int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Worker: worker, Index: index, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, index)
}
