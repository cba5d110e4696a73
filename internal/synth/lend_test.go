package synth

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/faultinject"
	"repro/internal/linalg"
	"repro/internal/par"
)

// lendCases are searches with several nodes per depth, so a pool with
// idle slots has runs to lend.
func lendCases() []struct {
	name   string
	target *linalg.Matrix
	opts   Options
} {
	u2 := linalg.RandomUnitary(4, rand.New(rand.NewSource(41)))
	u3 := linalg.RandomUnitary(8, rand.New(rand.NewSource(42)))
	return []struct {
		name   string
		target *linalg.Matrix
		opts   Options
	}{
		{"2q-exact", u2, Options{Seed: 3, MaxCNOTs: 4}},
		{"3q-harvest", u3, Options{Seed: 5, MaxCNOTs: 4, HarvestAll: true, Threshold: 0.05}},
		{"3q-wide", u3, Options{Seed: 7, MaxCNOTs: 3, Beam: 3, Restarts: 2, HarvestAll: true, Threshold: 0.0125}},
		{"3q-rotation-only", u3, Options{Seed: 9, MaxCNOTs: -1, HarvestAll: true}},
	}
}

// synthUnderPool runs SynthesizeCtx inside one slot of p, as a pipeline
// block does.
func synthUnderPool(t *testing.T, p *par.Pool, target *linalg.Matrix, opts Options) (Result, error) {
	t.Helper()
	var res Result
	var serr error
	err := p.ForEachErr(context.Background(), 1, func(ctx context.Context, _ int) error {
		res, serr = SynthesizeCtx(ctx, target, opts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, serr
}

// assertSlotsFree fails unless every slot of p is free.
func assertSlotsFree(t *testing.T, p *par.Pool) {
	t.Helper()
	got := 0
	for p.TryAcquire() {
		got++
	}
	for i := 0; i < got; i++ {
		p.Release()
	}
	if got != p.Size() {
		t.Fatalf("%d of %d pool slots free after synthesis", got, p.Size())
	}
}

// assertNoGoroutineLeak waits briefly for the goroutine count to fall
// back to base.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before synthesis", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSynthesizeBitIdenticalUnderAnyPool(t *testing.T) {
	var lent atomic.Int64
	defer faultinject.Set("synth.helper.run", func(int) error {
		lent.Add(1)
		return nil
	})()
	defer func() {
		if lent.Load() == 0 {
			t.Error("no optimizer run was lent to a helper: the pools were never exercised")
		}
	}()
	for _, tc := range lendCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, werr := SynthesizeCtx(context.Background(), tc.target, tc.opts)
			if werr != nil {
				t.Fatal(werr)
			}
			check := func(label string, got Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: result differs from the pool-free search (%d vs %d candidates, %d vs %d evaluations)",
						label, len(got.Candidates), len(want.Candidates), got.Evaluations, want.Evaluations)
				}
			}
			for _, size := range []int{1, 2, 4} {
				p := par.NewPool(size)
				got, err := synthUnderPool(t, p, tc.target, tc.opts)
				check(fmt.Sprintf("pool %d", size), got, err)
				assertSlotsFree(t, p)
			}

			// Every other slot held by another goroutine: nothing to lend.
			p := par.NewPool(3)
			for i := 0; i < 2; i++ {
				if err := p.Acquire(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			got, err := synthUnderPool(t, p, tc.target, tc.opts)
			p.Release()
			p.Release()
			check("pool held elsewhere", got, err)
			assertSlotsFree(t, p)

			// Two blocks at once on one pool, each lending to the other's
			// idle slots as they free up.
			p = par.NewPool(3)
			results := make([]Result, 2)
			errs := make([]error, 2)
			if err := p.ForEachErr(context.Background(), 2, func(ctx context.Context, i int) error {
				results[i], errs[i] = SynthesizeCtx(ctx, tc.target, tc.opts)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range results {
				check(fmt.Sprintf("concurrent block %d", i), results[i], errs[i])
			}
			assertSlotsFree(t, p)
		})
	}
}

func TestSynthesizeLendingReturnsSlots(t *testing.T) {
	target := linalg.RandomUnitary(8, rand.New(rand.NewSource(43)))
	opts := Options{Seed: 11, MaxCNOTs: 5, Beam: 3, Restarts: 2, HarvestAll: true, Threshold: 0.01}

	t.Run("normal", func(t *testing.T) {
		base := runtime.NumGoroutine()
		p := par.NewPool(4)
		if _, err := synthUnderPool(t, p, target, opts); err != nil {
			t.Fatal(err)
		}
		assertSlotsFree(t, p)
		assertNoGoroutineLeak(t, base)
	})

	t.Run("cancel-mid-depth", func(t *testing.T) {
		base := runtime.NumGoroutine()
		p := par.NewPool(4)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel from inside an optimizer iteration, while a depth's runs
		// are in flight on the caller and its helpers.
		restore := faultinject.Set("opt.lbfgs", func(call int) error {
			if call == 400 {
				cancel()
			}
			return nil
		})
		defer restore()
		var serr error
		if err := p.ForEachErr(ctx, 1, func(ctx context.Context, _ int) error {
			_, serr = SynthesizeCtx(ctx, target, opts)
			return nil
		}); err != nil && !errors.Is(err, budget.ErrCancelled) {
			t.Fatal(err)
		}
		if !errors.Is(serr, budget.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", serr)
		}
		assertSlotsFree(t, p)
		assertNoGoroutineLeak(t, base)
	})

	t.Run("helper-panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		p := par.NewPool(4)
		restore := faultinject.Set("synth.helper.run", faultinject.PanicOnCall(1, "helper boom"))
		defer restore()
		err := p.ForEachErr(context.Background(), 1, func(ctx context.Context, _ int) error {
			_, err := SynthesizeCtx(ctx, target, opts)
			return err
		})
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want a *par.PanicError", err)
		}
		if !strings.Contains(err.Error(), "helper boom") {
			t.Fatalf("err = %v, want it to carry the helper's panic value", err)
		}
		inner, ok := pe.Value.(*par.PanicError)
		if !ok || inner.Worker == 0 {
			t.Fatalf("panic value = %#v, want the helper's *par.PanicError", pe.Value)
		}
		assertSlotsFree(t, p)
		assertNoGoroutineLeak(t, base)
	})
}
