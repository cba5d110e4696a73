package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForEachCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]int32, n)
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	ForEach(workers, 200, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent calls, cap is %d", p, workers)
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int) { ran = true })
	ForEach(4, -5, func(int) { ran = true })
	if ran {
		t.Error("fn ran for n <= 0")
	}
}

func TestForEachSerialOrderWithOneWorker(t *testing.T) {
	var order []int
	ForEach(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
}

func TestForEachWorkersExceedN(t *testing.T) {
	// Regression: more workers than items must clamp to n goroutines,
	// cover every index exactly once, and never run an index twice.
	const n = 3
	var cur, peak atomic.Int32
	counts := make([]int32, n)
	ForEach(64, n, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		atomic.AddInt32(&counts[i], 1)
		runtime.Gosched()
		cur.Add(-1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if p := peak.Load(); p > n {
		t.Errorf("observed %d concurrent calls for n=%d items", p, n)
	}
}

func TestForEachErrZeroAndNegativeN(t *testing.T) {
	ran := false
	for _, n := range []int{0, -5} {
		if err := ForEachErr(context.Background(), 4, n, func(context.Context, int) error {
			ran = true
			return nil
		}); err != nil {
			t.Fatalf("n=%d: err = %v", n, err)
		}
	}
	if ran {
		t.Error("fn ran for n <= 0")
	}
}

func TestForEachErrCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 500
		counts := make([]int32, n)
		err := ForEachErr(context.Background(), workers, n, func(_ context.Context, i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ForEachErr(context.Background(), workers, 64, func(_ context.Context, i int) error {
			if i == 5 || i == 6 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "fail at 5") {
			// With early cancellation only one of the two may run; if
			// both ran, index 5 must win.
			if err == nil || !strings.Contains(err.Error(), "fail at") {
				t.Fatalf("workers=%d: err = %v, want a fn error", workers, err)
			}
		}
	}
}

func TestForEachErrErrorCancelsGroup(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := ForEachErr(context.Background(), 4, 10_000, func(ctx context.Context, i int) error {
		if i == 0 {
			return boom
		}
		if ctx.Err() != nil {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestForEachErrRecoversPanicWithWorkerAndStack(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachErr(context.Background(), workers, 100, func(_ context.Context, i int) error {
			if i == 17 {
				panic("injected worker crash")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 17 {
			t.Errorf("workers=%d: panic index = %d, want 17", workers, pe.Index)
		}
		if pe.Worker < 0 || pe.Worker >= 4 {
			t.Errorf("workers=%d: worker index = %d out of range", workers, pe.Worker)
		}
		if pe.Value != "injected worker crash" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "par") {
			t.Errorf("workers=%d: missing stack trace", workers)
		}
		if !strings.Contains(err.Error(), "worker") || !strings.Contains(err.Error(), "17") {
			t.Errorf("workers=%d: error text %q lacks worker/index", workers, err)
		}
	}
}

func TestForEachErrCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEachErr(ctx, 4, 100, func(context.Context, int) error {
		ran = true
		return nil
	})
	if !errors.Is(err, budget.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if ran {
		t.Error("fn ran under a cancelled context")
	}
}

func TestForEachErrDeadlineStopsLoop(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var done atomic.Int32
	start := time.Now()
	err := ForEachErr(ctx, 2, 1_000_000, func(context.Context, int) error {
		done.Add(1)
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, budget.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("loop ran %v after a 20ms deadline", elapsed)
	}
	if n := done.Load(); n == 1_000_000 {
		t.Error("loop completed despite deadline")
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	ForEach(4, 100, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
	t.Error("ForEach returned instead of panicking")
}

// TestForEachErrRootCauseBeatsGroupCancel pins the root-cause rule: when
// index 1 fails, the group cancel makes index 0 stop with ErrCancelled,
// and that induced cancellation must not win over index 1's error just
// because its index is lower.
func TestForEachErrRootCauseBeatsGroupCancel(t *testing.T) {
	sentinel := errors.New("root cause")
	fn := func(gctx context.Context, i int) error {
		if i == 0 {
			<-gctx.Done()
			return budget.Check(gctx)
		}
		return sentinel
	}
	if err := ForEachErr(context.Background(), 2, 2, fn); !errors.Is(err, sentinel) {
		t.Fatalf("ForEachErr = %v, want the root cause %v", err, sentinel)
	}
	if err := NewPool(2).ForEachErr(context.Background(), 2, fn); !errors.Is(err, sentinel) {
		t.Fatalf("Pool.ForEachErr = %v, want the root cause %v", err, sentinel)
	}
}

// TestForEachErrParentCancelStillWins: when the parent ctx itself is
// cancelled, cancellations are real and the lowest index wins as before.
func TestForEachErrParentCancelStillWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	other := errors.New("late failure")
	err := ForEachErr(ctx, 2, 2, func(gctx context.Context, i int) error {
		if i == 0 {
			cancel()
			<-gctx.Done()
			return budget.Check(gctx)
		}
		<-gctx.Done()
		return other
	})
	if !errors.Is(err, budget.ErrCancelled) {
		t.Fatalf("ForEachErr = %v, want ErrCancelled from the cancelled parent", err)
	}
}
