package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
)

func TestPoolBoundsConcurrencyAcrossRuns(t *testing.T) {
	const slots, runs, perRun = 3, 5, 40
	p := NewPool(slots)
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	results := make([][]int, runs)
	for r := 0; r < runs; r++ {
		results[r] = make([]int, perRun)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			err := p.ForEachErr(context.Background(), perRun, func(_ context.Context, i int) error {
				cur := inFlight.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
				results[r][i] = r*1000 + i
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	if got := peak.Load(); got > slots {
		t.Fatalf("peak in-flight = %d, pool has %d slots", got, slots)
	}
	for r := 0; r < runs; r++ {
		for i := 0; i < perRun; i++ {
			if results[r][i] != r*1000+i {
				t.Fatalf("run %d slot %d = %d (slot-write rule violated)", r, i, results[r][i])
			}
		}
	}
}

func TestPoolForEachErrLowestIndexWins(t *testing.T) {
	p := NewPool(4)
	err := p.ForEachErr(context.Background(), 32, func(_ context.Context, i int) error {
		if i%3 == 1 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail-1" {
		t.Fatalf("err = %v, want fail-1 (lowest failing index)", err)
	}
}

func TestPoolForEachErrPanicIsolated(t *testing.T) {
	p := NewPool(2)
	err := p.ForEachErr(context.Background(), 8, func(_ context.Context, i int) error {
		if i == 3 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 3 {
		t.Fatalf("panic index = %d, want 3", pe.Index)
	}
}

func TestPoolForEachErrCancellation(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	block := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- p.ForEachErr(ctx, 100, func(c context.Context, i int) error {
			started.Add(1)
			select {
			case <-block:
			case <-c.Done():
			}
			return nil
		})
	}()
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, budget.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEachErr did not return after cancellation")
	}
	close(block)
}

func TestPoolForEachErrExpiredBudgetRefusesWork(t *testing.T) {
	p := NewPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := p.ForEachErr(ctx, 4, func(context.Context, int) error {
		called = true
		return nil
	})
	if !errors.Is(err, budget.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if called {
		t.Fatal("fn ran under an expired budget")
	}
}

func TestPoolSingleSlotInlineSemantics(t *testing.T) {
	p := NewPool(1)
	var order []int
	err := p.ForEachErr(context.Background(), 5, func(_ context.Context, i int) error {
		order = append(order, i) // safe: one slot serializes everything
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("single-slot pool ran out of order: %v", order)
		}
	}
}

func TestPoolAcquireReleaseRoundTrip(t *testing.T) {
	p := NewPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); !errors.Is(err, budget.ErrDeadline) {
		t.Fatalf("second Acquire = %v, want ErrDeadline", err)
	}
	p.Release()
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after Release = %v", err)
	}
	p.Release()
	if got := p.Size(); got != 1 {
		t.Fatalf("Size = %d, want 1", got)
	}
}

func TestPoolZeroItems(t *testing.T) {
	p := NewPool(2)
	if err := p.ForEachErr(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolTryAcquireNeverWaits(t *testing.T) {
	p := NewPool(2)
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("TryAcquire failed on a pool with free slots")
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a full pool")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("TryAcquire failed after Release")
	}
	p.Release()
	p.Release()
	// Both slots are back: a blocking Acquire must not wait.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if err := p.Acquire(ctx); err != nil {
			t.Fatalf("Acquire %d after TryAcquire/Release = %v", i, err)
		}
	}
	p.Release()
	p.Release()
}

func TestPoolTryAcquireSharesTheSlotBudget(t *testing.T) {
	// Slots taken with TryAcquire under a ForEachErr slot come out of the
	// same budget: with one index running and one slot borrowed, a
	// third borrower finds the pool full.
	p := NewPool(2)
	err := p.ForEachErr(context.Background(), 1, func(context.Context, int) error {
		if !p.TryAcquire() {
			return errors.New("idle slot not lent")
		}
		defer p.Release()
		if p.TryAcquire() {
			p.Release()
			return errors.New("TryAcquire exceeded Size()")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPoolFromForEachErrCtx(t *testing.T) {
	if PoolFrom(context.Background()) != nil {
		t.Fatal("PoolFrom of a plain ctx is non-nil")
	}
	for _, slots := range []int{1, 3} {
		p := NewPool(slots)
		var wrong atomic.Int64
		err := p.ForEachErr(context.Background(), 6, func(ctx context.Context, _ int) error {
			if PoolFrom(ctx) != p {
				wrong.Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if wrong.Load() != 0 {
			t.Fatalf("slots=%d: %d callbacks saw a ctx without their pool", slots, wrong.Load())
		}
	}
	// A plain ForEachErr does not lend anything.
	err := ForEachErr(context.Background(), 2, 4, func(ctx context.Context, _ int) error {
		if PoolFrom(ctx) != nil {
			return errors.New("plain ForEachErr ctx carries a pool")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
