// Package par impersonates the real internal/par Pool so the poolnonest
// fixtures exercise the structural Pool matching (method set + package
// path segment) without importing the repo's own tree.
package par

import "context"

// Pool is a bounded slot scheduler; see the real internal/par for the
// full semantics. The no-nesting rule under test: code running under a
// slot must not acquire from the pool again.
type Pool struct {
	slots chan struct{}
}

func NewPool(n int) *Pool {
	p := &Pool{slots: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		p.slots <- struct{}{}
	}
	return p
}

func (p *Pool) Size() int { return cap(p.slots) }

func (p *Pool) Acquire(ctx context.Context) error {
	select {
	case <-p.slots:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) TryAcquire() bool {
	select {
	case <-p.slots:
		return true
	default:
		return false
	}
}

func (p *Pool) Release() { p.slots <- struct{}{} }

func (p *Pool) ForEachErr(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	for i := 0; i < n; i++ {
		if err := p.Acquire(ctx); err != nil {
			return err
		}
		err := fn(ctx, i)
		p.Release()
		if err != nil {
			return err
		}
	}
	return nil
}
