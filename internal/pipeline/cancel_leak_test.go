package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/budget"
	"repro/internal/faultinject"
	"repro/internal/par"
)

// TestCancelMidSynthesisNoGoroutineLeak cancels the context while the
// synthesis stage is verifiably mid-flight (a fault-injection stall
// holds block 0 open) and asserts two things the serving layer depends
// on: the error is budget.ErrCancelled under errors.Is even though the
// cancel races worker completion, and every stage worker goroutine
// exits — a questd worker pool would otherwise accumulate leaked
// goroutines on every cancelled or drained job.
func TestCancelMidSynthesisNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	c := algos.TFIM(4, 3, 0.1, 1, 1)
	cfg := testConfig()
	cfg.Parallelism = 2

	// Hold block 0's first synthesis attempt open long enough that the
	// cancellation below is guaranteed to land mid-stage.
	restore := faultinject.Set("core.block.0", faultinject.Stall(150*time.Millisecond))
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := Synthesize(ctx, c, cfg)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, budget.ErrCancelled) {
			t.Fatalf("err = %v, want budget.ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Synthesize did not return after cancellation")
	}

	// Workers unwind asynchronously after the stage error: poll until
	// the goroutine count settles back to the baseline (with slack for
	// runtime housekeeping goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizer/timer goroutines to finish
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancelled synthesis: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidSelectionNoGoroutineLeak cancels selection while the
// caller's attempt 0 and a helper's attempt 1 are both held open (qaoa_14
// reaches every attempt), with helper slots from a run-private pool and
// from a shared scheduler. Selection must report budget.ErrCancelled,
// return only after the helper has finished, leave no goroutine behind
// and return every scheduler slot.
func TestCancelMidSelectionNoGoroutineLeak(t *testing.T) {
	art := corpusArtifact(t, "qaoa_14")
	for _, mode := range selectionModes[1:] {
		t.Run(mode.name, func(t *testing.T) {
			cfg := Config{MaxSamples: 4, Seed: 1, Parallelism: mode.parallelism}
			var sched *par.Pool
			if mode.scheduler > 0 {
				sched = par.NewPool(mode.scheduler)
				cfg.Scheduler = sched
			}
			before := runtime.NumGoroutine()
			var started sync.WaitGroup
			started.Add(2)
			var helperDone atomic.Bool
			defer faultinject.Set("select.attempt.0", func(call int) error {
				if call == 1 {
					started.Done()
					time.Sleep(50 * time.Millisecond)
				}
				return nil
			})()
			// The helper's attempt outlasts the caller's, so a selection
			// that returned without joining it would find it running.
			defer faultinject.Set("select.attempt.1", func(call int) error {
				if call == 1 {
					started.Done()
					time.Sleep(200 * time.Millisecond)
					helperDone.Store(true)
				}
				return nil
			})()

			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := SelectionStage(cfg).Run(ctx, art)
				errc <- err
			}()
			started.Wait() // both attempts are in flight
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, budget.ErrCancelled) {
					t.Fatalf("err = %v, want budget.ErrCancelled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("selection did not return after cancellation")
			}
			if !helperDone.Load() {
				t.Fatal("selection returned before joining its helper")
			}
			// Selection joins its helpers before it returns, so only the
			// runtime's own goroutines may still be winding down.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+2 {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked after cancelled selection: %d before, %d after",
						before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
			if sched != nil {
				assertSlotsFree(t, sched)
			}
		})
	}
}
