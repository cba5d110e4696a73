package pipeline

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/ucache"
)

// OverlappedSynthesisStage fuses STEP 1 and STEP 2 into one streaming
// stage: partition.Stream emits each block the moment the scan proves it
// closed, and a consumer pool synthesizes blocks as they arrive — block 0
// is searching while the scanner is still walking the circuit's tail,
// instead of waiting behind the full-materialize barrier the staged
// composition has.
//
// The output is bit-identical to Then(PartitionStage(cfg),
// SynthesisStage(cfg)) — same blocks (Stream ≡ Scan), same per-block
// searches (content-derived seeds, the full-circuit threshold is fixed up
// front by a cheap partition.Count pre-pass), same degradation and cache
// semantics — asserted by the overlapped-vs-staged golden test. Only
// wall-clock and Elapsed telemetry differ.
//
// Concurrency: consumers come from Config.Scheduler when set (the shared
// cross-run pool), otherwise from a private Parallelism-sized group, with
// par's semantics: slot-write determinism, error-by-lowest-index, panics
// surfaced as *par.PanicError, typed budget errors. With AllowDegraded
// the scan still runs to completion on an expired budget (the degraded
// result needs the full block structure), exactly like PartitionStage.
func OverlappedSynthesisStage(cfg Config) Stage[*circuit.Circuit, *SynthesisArtifact] {
	cfg.defaults()
	return NewStage("partition+synthesis(overlap)", func(ctx context.Context, c *circuit.Circuit) (*SynthesisArtifact, error) {
		partElapsed := stageClock()
		if err := budget.Check(ctx); err != nil && !cfg.AllowDegraded {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		// The pre-pass fixes the block count — and with it the
		// full-circuit threshold every per-block filter needs — without
		// materializing a single block. It also surfaces structural
		// errors (too-wide ops) before any goroutine exists.
		n, err := partition.Count(c, cfg.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("pipeline: partition: %w", err)
		}
		pa := &PartitionArtifact{
			Original:  c,
			Blocks:    make([]partition.Block, n),
			Threshold: math.Min(cfg.Epsilon*float64(n), cfg.ThresholdCap),
			Key:       cfg.partitionKey(),
		}
		var statsBefore ucache.Stats
		if cfg.SynthCache != nil {
			statsBefore = cfg.SynthCache.Stats()
		}
		synthElapsed := stageClock()
		art := &SynthesisArtifact{
			Partition: pa,
			Blocks:    make([]BlockApproximations, n),
			Cfg:       cfg,
			Key:       cfg.synthKey(),
		}
		degs := make([]*Degradation, n)

		gctx, cancel := context.WithCancel(ctx)
		defer cancel()

		// Producer: the scan runs on its own goroutine, emitting block
		// indices as they close. The channel is buffered to the full
		// block count, so the producer never blocks on a slow consumer
		// and always runs the scan to completion or error; consumers
		// range to channel close, so no goroutine can leak under any
		// cancellation order.
		items := make(chan int, n)
		prodDone := make(chan error, 1)
		sctx := gctx
		if cfg.AllowDegraded {
			// Degradation needs every block's exact circuit: the scan
			// must finish even after the run budget expires, exactly as
			// PartitionStage runs on an expired budget.
			sctx = context.WithoutCancel(ctx)
		}
		go func() {
			i := 0
			err := partition.Stream(sctx, c, cfg.BlockSize, func(b partition.Block) error {
				pa.Blocks[i] = b
				items <- i // buffered to n: never blocks
				i++
				return nil
			})
			pa.Elapsed = partElapsed()
			close(items)
			prodDone <- err
		}()

		// Consumers: synthesize blocks as they arrive. Slot-write
		// determinism (block i writes only art.Blocks[i]/degs[i]/errs[i])
		// makes results independent of arrival interleaving.
		workers := par.Workers(cfg.Parallelism)
		if cfg.Scheduler != nil {
			workers = cfg.Scheduler.Size()
		}
		if workers > n {
			workers = n
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(worker int) {
				defer wg.Done()
				for i := range items {
					if gctx.Err() != nil {
						continue // group failed: drain the channel cheaply
					}
					if cfg.Scheduler != nil {
						if err := cfg.Scheduler.Acquire(gctx); err != nil {
							continue
						}
					}
					err := protectBlock(gctx, worker, i, func(bctx context.Context, i int) error {
						ba, deg, err := synthesizeBlock(bctx, i, pa.Blocks[i], cfg, pa.Threshold)
						if err != nil {
							return fmt.Errorf("synthesize block %d: %w", i, err)
						}
						art.Blocks[i] = ba
						degs[i] = deg
						return nil
					})
					if cfg.Scheduler != nil {
						cfg.Scheduler.Release()
					}
					if err != nil {
						errs[i] = err
						cancel() // siblings drain at their next check
					}
				}
			}(w)
		}
		wg.Wait()
		prodErr := <-prodDone

		if prodErr != nil {
			if budget.Terminated(prodErr) {
				return nil, fmt.Errorf("pipeline: %w", prodErr)
			}
			return nil, fmt.Errorf("pipeline: partition: %w", prodErr)
		}
		// The same choice par.ForEachErr makes: the root cause, not a
		// sibling's induced cancellation, and an expired parent budget
		// when consumers skipped indices without failing.
		synthErr := par.FirstErr(ctx, errs)
		if cfg.SynthCache != nil {
			art.CacheStats = cfg.SynthCache.Stats().Sub(statsBefore)
		}
		if synthErr != nil {
			if !budget.Terminated(synthErr) || !cfg.AllowDegraded {
				return nil, fmt.Errorf("pipeline: %w", synthErr)
			}
			// Budget expired with AllowDegraded: every unfinished block
			// degrades to its exact circuit so the result stays valid.
			for i := range art.Blocks {
				if art.Blocks[i].Candidates == nil {
					art.Blocks[i] = exactOnlyBlock(pa.Blocks[i])
					degs[i] = &Degradation{
						Block:    i,
						Qubits:   pa.Blocks[i].Qubits,
						Attempts: 0,
						Reason:   "run budget exhausted: " + synthErr.Error(),
					}
				}
			}
		}
		for _, d := range degs {
			if d != nil {
				art.Degradations = append(art.Degradations, *d)
			}
		}
		art.Elapsed = synthElapsed()
		return art, nil
	})
}

// protectBlock runs one consumer step with par's panic isolation.
func protectBlock(ctx context.Context, worker, index int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &par.PanicError{Worker: worker, Index: index, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, index)
}
