// Command quest runs the QUEST approximation pipeline on a circuit and
// writes the selected approximations as OpenQASM 2.0 files.
//
// Usage:
//
//	quest -in circuit.qasm [-out dir] [flags]
//	quest -algo tfim -n 4 [-out dir] [flags]
//	quest -corpus examples/circuits/corpus [-corpus-mode overlap] [flags]
//
// With -out unset, a summary table is printed and no files are written.
//
// -corpus compiles every .qasm file in a directory as one batch: several
// circuits compile concurrently and all of them share one cross-circuit
// synthesis scheduler and one synthesis cache, so the machine stays
// exactly -parallelism blocks busy regardless of how the work is spread
// across circuits. -corpus-mode staged-serial keeps the historical
// one-circuit-at-a-time driver as a benchmark baseline (identical
// results, more wall time).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	quest "repro"
	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/qasm"
	"repro/internal/sim"
	"repro/internal/ucache"
)

func main() {
	var (
		inFile    = flag.String("in", "", "input OpenQASM 2.0 file")
		algo      = flag.String("algo", "", "generate a Table-1 benchmark instead of reading a file")
		qubits    = flag.Int("n", 4, "benchmark size (with -algo)")
		outDir    = flag.String("out", "", "directory for the approximate .qasm files")
		artDir    = flag.String("artifact", "", "directory for the full artifact layout (blocks, candidates, solutions)")
		blockSize = flag.Int("blocksize", 3, "maximum partition block size")
		epsilon   = flag.Float64("eps", 0.05, "per-block process-distance budget")
		samples   = flag.Int("samples", 16, "maximum number of dissimilar approximations (M)")
		cxWeight  = flag.Float64("cx-weight", 0.5, "selection objective weight: α·CNOTs + (1-α)·dissimilarity (0 = pure dissimilarity)")
		objective = flag.String("objective", "cnot", "selection objective: cnot, fidelity[:<backend>] or hybrid:<w>[:<backend>]")
		seed      = flag.Int64("seed", 1, "random seed")
		bspec     = flag.String("backend", "ideal", "execution backend for the ensemble report: one of "+strings.Join(quest.Backends(), ", ")+" (name[:arg], e.g. noisy:0.005; empty disables the report)")
		shots     = flag.Int("shots", 0, "measurement shots for the ensemble report (0 = exact probabilities)")

		timeout      = flag.Duration("timeout", 0, "whole-pipeline deadline (0 = none)")
		blockTimeout = flag.Duration("block-timeout", 0, "per-attempt block synthesis deadline (0 = none)")
		maxRestarts  = flag.Int("max-restarts", 2, "synthesis retries per block before degrading (-1 = none)")
		degraded     = flag.Bool("allow-degraded", false, "on budget exhaustion, substitute exact blocks instead of failing")

		cacheSize = flag.Int("synth-cache", 1024, "synthesis cache entries; repeated block unitaries (Trotter steps, mirrored subcircuits) synthesize once (0 = disabled)")
		cacheTol  = flag.Float64("synth-cache-tol", 0, "cache match tolerance; 0 = strict (bit-reproducible), >0 reuses near-identical blocks with inflated distance bounds")
		cacheDir  = flag.String("synth-cache-dir", "", "persist the synthesis cache in this directory so warm hits survive across runs (empty = in-memory only)")

		corpusDir   = flag.String("corpus", "", "compile every .qasm file in this directory as one scheduled batch")
		corpusMode  = flag.String("corpus-mode", experiments.ModeOverlapped, "corpus driver: overlap (concurrent circuits, shared scheduler and cache) or staged-serial (baseline)")
		jobs        = flag.Int("jobs", 0, "concurrent circuit compilations in corpus overlap mode (0 = min(4, circuits))")
		parallelism = flag.Int("parallelism", 0, "machine-wide synthesis worker slots (0 = NumCPU)")
		passes      = flag.Int("passes", 1, "corpus compilation passes against the shared cache (2 measures warm-cache serving)")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the pipeline instead of killing the process
	// mid-write; a second signal falls through to the default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *corpusDir != "" {
		_, err := experiments.RunCorpus(ctx, experiments.CorpusOptions{
			Dir:        *corpusDir,
			Mode:       *corpusMode,
			Jobs:       *jobs,
			Workers:    *parallelism,
			Passes:     *passes,
			BlockSize:  *blockSize,
			Epsilon:    *epsilon,
			MaxSamples: *samples,
			Seed:       *seed,
			CacheSize:  *cacheSize,
			Timeout:    *timeout,
			Out:        os.Stdout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "quest:", err)
			os.Exit(1)
		}
		return
	}

	c, name, err := loadCircuit(*inFile, *algo, *qubits)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quest:", err)
		os.Exit(1)
	}

	obj, err := quest.SelectionObjective(*objective)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quest:", err)
		os.Exit(1)
	}

	fmt.Printf("input %s: %d qubits, %d ops, %d CNOTs, depth %d\n",
		name, c.NumQubits, c.Size(), c.CNOTCount(), c.Depth())

	var cache *ucache.Cache
	if *cacheSize > 0 {
		if *cacheDir != "" {
			cache, err = ucache.OpenDisk(*cacheDir, *cacheSize, *cacheTol)
			if err != nil {
				fmt.Fprintf(os.Stderr, "quest: %v; continuing with an in-memory cache\n", err)
				cache = ucache.New(*cacheSize, *cacheTol)
			}
		} else {
			cache = ucache.New(*cacheSize, *cacheTol)
		}
		defer func() {
			if err := cache.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "quest:", err)
			}
		}()
	}

	start := time.Now()
	res, err := quest.ApproximateCtx(ctx, c, quest.Config{
		BlockSize:     *blockSize,
		Epsilon:       *epsilon,
		MaxSamples:    *samples,
		CXWeight:      *cxWeight,
		CXWeightSet:   true,
		Objective:     obj,
		Seed:          *seed,
		Timeout:       *timeout,
		BlockTimeout:  *blockTimeout,
		MaxRestarts:   *maxRestarts,
		AllowDegraded: *degraded,
		SynthCache:    cache,
	})
	if err != nil {
		switch {
		case errors.Is(err, quest.ErrDeadline):
			fmt.Fprintf(os.Stderr, "quest: budget exhausted after %v (rerun with a larger -timeout, or -allow-degraded for a partial result): %v\n",
				time.Since(start).Round(time.Millisecond), err)
		case errors.Is(err, quest.ErrCancelled):
			fmt.Fprintln(os.Stderr, "quest: interrupted:", err)
		default:
			fmt.Fprintln(os.Stderr, "quest:", err)
		}
		os.Exit(1)
	}

	fmt.Printf("partitioned into %d blocks (threshold Σε ≤ %.3f)\n", len(res.Blocks), res.Threshold)
	for _, d := range res.Degradations {
		fmt.Printf("degraded block %d (qubits %v) to its exact sub-circuit after %d attempts: %s\n",
			d.Block, d.Qubits, d.Attempts, d.Reason)
	}
	fmt.Printf("selected %d dissimilar approximations:\n", len(res.Selected))
	fmt.Printf("%8s %8s %12s\n", "sample", "CNOTs", "bound Σε")
	for i, a := range res.Selected {
		fmt.Printf("%8d %8d %12.4f\n", i, a.CNOTs, a.EpsilonSum)
	}
	fmt.Printf("timing: partition %v, synthesis %v, annealing %v\n",
		res.Timing.Partition, res.Timing.Synthesis, res.Timing.Annealing)
	if cache != nil {
		fmt.Printf("synthesis cache: %d hits, %d misses, %d evictions\n",
			res.CacheStats.Hits, res.CacheStats.Misses, res.CacheStats.Evictions)
	}

	if *bspec != "" && c.NumQubits <= 12 {
		be, err := quest.GetBackend(*bspec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "quest:", err)
			os.Exit(1)
		}
		if max := be.Capabilities().MaxQubits; max > 0 && c.NumQubits > max {
			fmt.Fprintf(os.Stderr, "quest: backend %s supports at most %d qubits, circuit has %d\n",
				be.Name(), max, c.NumQubits)
			os.Exit(1)
		}
		truth := sim.Probabilities(c)
		ens, err := res.EnsembleProbabilitiesCtx(ctx, quest.BackendRunnerCtx(be, *shots, *seed), 0)
		if err == nil {
			fmt.Printf("%s ensemble TVD = %.4f, JSD = %.4f\n",
				be.Name(), metrics.TVD(truth, ens), metrics.JSD(truth, ens))
		}
	}

	if *artDir != "" {
		if err := artifact.Write(*artDir, res); err != nil {
			fmt.Fprintln(os.Stderr, "quest:", err)
			os.Exit(1)
		}
		if err := artifact.Verify(*artDir); err != nil {
			fmt.Fprintln(os.Stderr, "quest: artifact self-check:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote and verified artifact layout under %s\n", *artDir)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "quest:", err)
			os.Exit(1)
		}
		for i, a := range res.Selected {
			path := filepath.Join(*outDir, fmt.Sprintf("%s_approx_%02d.qasm", name, i))
			if err := os.WriteFile(path, []byte(qasm.Write(a.Circuit)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "quest:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("wrote %d files to %s\n", len(res.Selected), *outDir)
	}
}

func loadCircuit(inFile, algo string, qubits int) (*quest.Circuit, string, error) {
	switch {
	case inFile != "":
		src, err := os.ReadFile(inFile)
		if err != nil {
			return nil, "", err
		}
		c, err := quest.ParseQASM(string(src))
		if err != nil {
			return nil, "", err
		}
		base := filepath.Base(inFile)
		return c, base[:len(base)-len(filepath.Ext(base))], nil
	case algo != "":
		c, err := quest.GenerateBenchmark(algo, qubits)
		if err != nil {
			return nil, "", err
		}
		return c, fmt.Sprintf("%s_%d", algo, c.NumQubits), nil
	}
	return nil, "", fmt.Errorf("need -in or -algo (benchmarks: %v)", quest.Benchmarks())
}
