package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/ucache"
)

// CorpusOptions configures RunCorpus.
type CorpusOptions struct {
	// Dir holds the corpus .qasm files (every *.qasm in it is compiled,
	// in sorted order).
	Dir string
	// Jobs is the number of circuits compiled concurrently (default
	// min(4, number of circuits)).
	Jobs int
	// Passes compiles the corpus this many times against one shared
	// synthesis cache (default 1); a second pass measures warm-cache
	// serving and must show hits.
	Passes int
	// Pipeline configures every circuit's compilation. Its Parallelism
	// is the machine-wide synthesis slot budget (0 = NumCPU): the size of
	// the scheduler pool every circuit's block syntheses share, which
	// replaces any Scheduler set here. Its SynthCache, built by the
	// caller (nil disables caching), is shared by every circuit and pass.
	// Results do not depend on Parallelism or Jobs.
	Pipeline pipeline.Config
	// Out receives the result table and the greppable `corpus ...` lines
	// `make corpus-smoke` checks; nil means io.Discard.
	Out io.Writer
}

// CorpusCircuit is one circuit's compilation outcome within a pass.
type CorpusCircuit struct {
	File         string        `json:"file"`
	Qubits       int           `json:"qubits"`
	Ops          int           `json:"ops"`
	Blocks       int           `json:"blocks"`
	CNOTs        int           `json:"cnots"`
	ApproxCNOTs  int           `json:"approx_cnots"`
	ReductionPct float64       `json:"reduction_pct"`
	Samples      int           `json:"samples"`
	Degradations int           `json:"degradations"`
	Wall         time.Duration `json:"wall_ns"`

	// selected holds the chosen approximations, so tests can compare a
	// batch compilation with the same circuit compiled alone.
	selected []pipeline.Approximation
}

// CorpusPass is one full compilation of the corpus.
type CorpusPass struct {
	Pass       int             `json:"pass"`
	Circuits   []CorpusCircuit `json:"circuits"`
	Wall       time.Duration   `json:"wall_ns"`
	CacheStats ucache.Stats    `json:"cache_stats"`
}

// CorpusReport is RunCorpus's result.
type CorpusReport struct {
	Workers int          `json:"workers"`
	Jobs    int          `json:"jobs"`
	Passes  []CorpusPass `json:"passes"`
}

// Degradations sums degradations across every pass and circuit.
func (r *CorpusReport) Degradations() int {
	total := 0
	for _, p := range r.Passes {
		for _, c := range p.Circuits {
			total += c.Degradations
		}
	}
	return total
}

// RunCorpus compiles every .qasm circuit in opts.Dir through the QUEST
// pipeline as one batch and reports per-circuit CNOT reduction, wall
// time, and cache activity. Several circuits compile concurrently, their
// block syntheses overlapping on one shared scheduler pool, and all of
// them share one synthesis cache, so a block unitary appearing anywhere
// in the corpus is synthesized exactly once (singleflight coalesces even
// concurrent duplicates). Every circuit compiles exactly as it would
// alone with a cold private cache (asserted by tests); only scheduling
// and cache traffic differ.
func RunCorpus(ctx context.Context, opts CorpusOptions) (*CorpusReport, error) {
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	if opts.Passes <= 0 {
		opts.Passes = 1
	}

	files, err := filepath.Glob(filepath.Join(opts.Dir, "*.qasm"))
	if err != nil {
		return nil, fmt.Errorf("experiments: corpus: %w", err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("experiments: no .qasm files in %s", opts.Dir)
	}
	sort.Strings(files)
	circuits := make([]*qasmCircuit, len(files))
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("experiments: corpus: %w", err)
		}
		c, err := qasm.Parse(string(src))
		if err != nil {
			return nil, fmt.Errorf("experiments: corpus %s: %w", filepath.Base(f), err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".qasm")
		circuits[i] = &qasmCircuit{name: name, circuit: c}
	}

	// A strict cache (tolerance 0) never changes results, so sharing one
	// across the batch leaves every circuit's compilation unchanged.
	cfg := opts.Pipeline
	cache := cfg.SynthCache
	cfg.Parallelism = par.Workers(cfg.Parallelism)
	cfg.Scheduler = par.NewPool(cfg.Parallelism)
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = 4
	}
	if jobs > len(files) {
		jobs = len(files)
	}

	report := &CorpusReport{Workers: cfg.Parallelism, Jobs: jobs}
	for pass := 1; pass <= opts.Passes; pass++ {
		var statsBefore ucache.Stats
		if cache != nil {
			statsBefore = cache.Stats()
		}
		results := make([]CorpusCircuit, len(circuits))
		compile := func(cctx context.Context, i int) error {
			qc := circuits[i]
			start := time.Now()
			res, err := pipeline.RunCtx(cctx, qc.circuit, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", qc.name, err)
			}
			orig := qc.circuit.CNOTCount()
			best := res.BestCNOTs()
			red := 0.0
			if orig > 0 {
				red = 100 * float64(orig-best) / float64(orig)
			}
			results[i] = CorpusCircuit{
				File:         qc.name,
				Qubits:       qc.circuit.NumQubits,
				Ops:          qc.circuit.Size(),
				Blocks:       len(res.Blocks),
				CNOTs:        orig,
				ApproxCNOTs:  best,
				ReductionPct: red,
				Samples:      len(res.Selected),
				Degradations: len(res.Degradations),
				Wall:         time.Since(start),
				selected:     res.Selected,
			}
			return nil
		}
		passStart := time.Now()
		if err := par.ForEachErr(ctx, jobs, len(circuits), compile); err != nil {
			return nil, fmt.Errorf("experiments: corpus: %w", err)
		}
		p := CorpusPass{Pass: pass, Circuits: results, Wall: time.Since(passStart)}
		if cache != nil {
			p.CacheStats = cache.Stats().Sub(statsBefore)
		}
		report.Passes = append(report.Passes, p)
		printCorpusPass(out, report, p)
	}
	return report, nil
}

type qasmCircuit struct {
	name    string
	circuit *circuit.Circuit
}

// printCorpusPass writes one pass's human table followed by the greppable
// machine lines (`corpus <file> k=v ...` / `corpus-total ...`) that
// `make corpus-smoke` diffs against its golden and asserts on.
func printCorpusPass(w io.Writer, r *CorpusReport, p CorpusPass) {
	fmt.Fprintf(w, "\ncorpus pass %d (workers=%d, jobs=%d)\n", p.Pass, r.Workers, r.Jobs)
	fmt.Fprintf(w, "%-16s %7s %7s %8s %8s %10s %6s %6s %12s\n",
		"circuit", "qubits", "blocks", "cnots", "approx", "reduction", "deg", "M", "wall")
	totalDeg := 0
	for _, c := range p.Circuits {
		fmt.Fprintf(w, "%-16s %7d %7d %8d %8d %9.1f%% %6d %6d %12v\n",
			c.File, c.Qubits, c.Blocks, c.CNOTs, c.ApproxCNOTs, c.ReductionPct,
			c.Degradations, c.Samples, c.Wall.Round(time.Millisecond))
		totalDeg += c.Degradations
	}
	fmt.Fprintf(w, "pass wall %v, cache %d hits / %d misses, %d degradations\n",
		p.Wall.Round(time.Millisecond), p.CacheStats.Hits, p.CacheStats.Misses, totalDeg)
	for _, c := range p.Circuits {
		fmt.Fprintf(w, "corpus %s pass=%d qubits=%d ops=%d blocks=%d cnots=%d approx_cnots=%d reduction_pct=%.2f samples=%d degradations=%d wall_ns=%d\n",
			c.File, p.Pass, c.Qubits, c.Ops, c.Blocks, c.CNOTs, c.ApproxCNOTs,
			c.ReductionPct, c.Samples, c.Degradations, c.Wall.Nanoseconds())
	}
	fmt.Fprintf(w, "corpus-total pass=%d workers=%d jobs=%d circuits=%d degradations=%d cache_hits=%d cache_misses=%d wall_ns=%d\n",
		p.Pass, r.Workers, r.Jobs, len(p.Circuits), totalDeg,
		p.CacheStats.Hits, p.CacheStats.Misses, p.Wall.Nanoseconds())
}
