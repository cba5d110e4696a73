// Package use seeds no-nesting violations against the fixture Pool plus
// the clean idioms poolnonest must accept.
package use

import (
	"context"

	"poolfix/internal/par"
)

var shared = par.NewPool(4)

func inner(ctx context.Context, i int) error { return nil }

func doWork(i int) {}

// A callback that re-enters the pool directly.
func direct(ctx context.Context, p *par.Pool) error {
	return p.ForEachErr(ctx, 8, func(ctx context.Context, i int) error {
		return p.ForEachErr(ctx, 2, inner) // want `pool slot callback re-enters the pool via Pool\.ForEachErr`
	})
}

// ...or through one level of helper.
func throughHelper(ctx context.Context, p *par.Pool) error {
	return p.ForEachErr(ctx, 8, func(ctx context.Context, i int) error {
		return nested(ctx, p) // want `pool slot callback calls use\.nested, which transitively acquires from the pool`
	})
}

func nested(ctx context.Context, p *par.Pool) error {
	return p.ForEachErr(ctx, 2, inner)
}

// A named callback handed through a wrapper: the wrapper forwards its fn
// parameter into ForEachErr, so its callers' arguments run under a slot.
func runAll(ctx context.Context, p *par.Pool, n int, fn func(ctx context.Context, i int) error) error {
	return p.ForEachErr(ctx, n, fn)
}

func viaWrapper(ctx context.Context, p *par.Pool) error {
	return runAll(ctx, p, 4, poolReenter) // want `use\.poolReenter runs under a pool slot and transitively acquires from the pool`
}

func poolReenter(ctx context.Context, i int) error {
	if err := shared.Acquire(ctx); err != nil {
		return err
	}
	defer shared.Release()
	doWork(i)
	return nil
}

// Clean: a well-behaved callback through the same wrapper.
func viaWrapperClean(ctx context.Context, p *par.Pool) error {
	return runAll(ctx, p, 4, inner)
}

// Manual Acquire/Release region: calls inside must not reach the pool.
func heldRegion(ctx context.Context, p *par.Pool) error {
	if err := p.Acquire(ctx); err != nil {
		return err
	}
	err := nested(ctx, p) // want `use\.nested called while a pool slot is held, and it transitively acquires from the pool`
	p.Release()
	return err
}

func heldRegionDirect(ctx context.Context, p *par.Pool) error {
	if err := p.Acquire(ctx); err != nil {
		return err
	}
	err := p.ForEachErr(ctx, 2, inner) // want `Pool\.ForEachErr called while a pool slot is held`
	p.Release()
	return err
}

// Clean: the canonical acquire-retry loop (a failed Acquire continues to
// the next attempt) with pool-free work under the slot.
func cleanRegion(ctx context.Context, p *par.Pool, n int) error {
	for i := 0; i < n; i++ {
		if err := p.Acquire(ctx); err != nil {
			continue
		}
		doWork(i)
		p.Release()
	}
	return nil
}

// Clean: releasing before re-entering the pool is allowed.
func releaseThenReenter(ctx context.Context, p *par.Pool) error {
	if err := p.Acquire(ctx); err != nil {
		return err
	}
	doWork(0)
	p.Release()
	return nested(ctx, p)
}

// Clean: TryAcquire never waits, so a slot callback may borrow an idle
// slot with it, directly...
func borrowIdle(ctx context.Context, p *par.Pool) error {
	return p.ForEachErr(ctx, 8, func(ctx context.Context, i int) error {
		if p.TryAcquire() {
			doWork(i)
			p.Release()
		}
		doWork(i)
		return nil
	})
}

// ...or through a helper.
func borrowIdleViaHelper(ctx context.Context, p *par.Pool) error {
	return p.ForEachErr(ctx, 8, func(ctx context.Context, i int) error {
		lend(p, i)
		return nil
	})
}

func lend(p *par.Pool, i int) {
	if !p.TryAcquire() {
		doWork(i)
		return
	}
	defer p.Release()
	doWork(i)
}

// The region after a successful TryAcquire is slot-held like an
// Acquire's: it must not re-enter the pool.
func tryHeldRegion(ctx context.Context, p *par.Pool) error {
	if !p.TryAcquire() {
		return nil
	}
	err := nested(ctx, p) // want `use\.nested called while a pool slot is held, and it transitively acquires from the pool`
	p.Release()
	return err
}

func tryHeldRegionDirect(ctx context.Context, p *par.Pool) error {
	if p.TryAcquire() {
		err := p.ForEachErr(ctx, 2, inner) // want `Pool\.ForEachErr called while a pool slot is held`
		p.Release()
		return err
	}
	return nil
}

// Clean: releasing a borrowed slot before re-entering the pool.
func tryReleaseThenReenter(ctx context.Context, p *par.Pool) error {
	if p.TryAcquire() {
		doWork(0)
		p.Release()
	}
	return nested(ctx, p)
}
