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

// Corpus compilation modes. StagedSerial reproduces the pre-batch
// driver — compiling a directory used to mean one `quest` invocation per
// file, so each circuit runs the staged pipeline serially with a private
// per-run worker pool and its own cold synthesis cache. Overlapped is
// the batch path this driver exists for: several circuits compile
// concurrently through the same staged pipeline, their block syntheses
// overlapping on one shared scheduler pool, and all of them share one
// synthesis cache, so a block unitary appearing anywhere in the corpus
// is synthesized exactly once machine-wide (singleflight coalesces even
// concurrent duplicates).
const (
	ModeStagedSerial = "staged-serial"
	ModeOverlapped   = "overlap"
)

// CorpusOptions configures RunCorpus.
type CorpusOptions struct {
	// Dir holds the corpus .qasm files (every *.qasm in it is compiled,
	// in sorted order).
	Dir string
	// Mode is ModeOverlapped (default) or ModeStagedSerial.
	Mode string
	// Jobs is the number of circuits compiled concurrently in overlapped
	// mode (default min(4, number of circuits); staged-serial is always 1).
	Jobs int
	// Workers is the machine-wide synthesis slot budget: the shared
	// scheduler pool size in overlapped mode, the per-run Parallelism in
	// staged-serial mode (0 = NumCPU). Results are identical either way.
	Workers int
	// Passes compiles the corpus this many times against one shared
	// synthesis cache (default 1); a second pass measures warm-cache
	// serving and must show hits.
	Passes int
	// BlockSize, Epsilon, MaxSamples, AnnealIterations, Seed override the
	// pipeline defaults (zero keeps each default).
	BlockSize        int
	Epsilon          float64
	MaxSamples       int
	AnnealIterations int
	Seed             int64
	// CacheSize bounds the shared synthesis cache (0 disables caching).
	CacheSize int
	// Timeout bounds each circuit's compilation (0 = none); expired runs
	// degrade rather than fail (AllowDegraded).
	Timeout time.Duration
	// Out receives the result table and the greppable `corpus ...` lines
	// benchjson -corpus parses; nil means io.Discard.
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
	Mode    string       `json:"mode"`
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
// pipeline and reports per-circuit CNOT reduction, wall time, and cache
// activity. The two modes produce bit-identical compilation results
// (asserted by tests); only scheduling differs, which is exactly what the
// corpus benchmark measures.
func RunCorpus(ctx context.Context, opts CorpusOptions) (*CorpusReport, error) {
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	if opts.Mode == "" {
		opts.Mode = ModeOverlapped
	}
	if opts.Mode != ModeOverlapped && opts.Mode != ModeStagedSerial {
		return nil, fmt.Errorf("experiments: unknown corpus mode %q (have %s, %s)",
			opts.Mode, ModeOverlapped, ModeStagedSerial)
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

	// Overlapped mode shares one cache across the whole batch;
	// staged-serial gives every circuit a cold private cache, exactly like
	// the per-invocation runs it models. Caching never changes results
	// (strict mode), so the two modes still compile identically.
	var cache *ucache.Cache
	if opts.CacheSize > 0 && opts.Mode == ModeOverlapped {
		cache = ucache.New(opts.CacheSize, 0)
	}
	workers := par.Workers(opts.Workers)
	jobs := 1
	var pool *par.Pool
	if opts.Mode == ModeOverlapped {
		pool = par.NewPool(workers)
		jobs = opts.Jobs
		if jobs <= 0 {
			jobs = 4
		}
		if jobs > len(files) {
			jobs = len(files)
		}
	}

	report := &CorpusReport{Mode: opts.Mode, Workers: workers, Jobs: jobs}
	for pass := 1; pass <= opts.Passes; pass++ {
		var statsBefore ucache.Stats
		if cache != nil {
			statsBefore = cache.Stats()
		}
		results := make([]CorpusCircuit, len(circuits))
		var perPass ucache.Stats // staged-serial: summed per-circuit stats
		compile := func(cctx context.Context, i int) error {
			qc := circuits[i]
			runCache := cache
			if runCache == nil && opts.CacheSize > 0 {
				runCache = ucache.New(opts.CacheSize, 0)
			}
			cfg := pipeline.Config{
				BlockSize:        opts.BlockSize,
				Epsilon:          opts.Epsilon,
				MaxSamples:       opts.MaxSamples,
				AnnealIterations: opts.AnnealIterations,
				Seed:             opts.Seed,
				Timeout:          opts.Timeout,
				AllowDegraded:    opts.Timeout > 0,
				SynthCache:       runCache,
				Parallelism:      workers,
				Scheduler:        pool,
			}
			start := time.Now()
			res, err := pipeline.RunCtx(cctx, qc.circuit, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", qc.name, err)
			}
			if cache == nil && runCache != nil {
				// Serial loop: no concurrent writers of perPass.
				perPass.Hits += res.CacheStats.Hits
				perPass.Misses += res.CacheStats.Misses
				perPass.Evictions += res.CacheStats.Evictions
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
			}
			return nil
		}
		passStart := time.Now()
		if jobs == 1 {
			for i := range circuits {
				if err := compile(ctx, i); err != nil {
					return nil, fmt.Errorf("experiments: corpus: %w", err)
				}
			}
		} else if err := par.ForEachErr(ctx, jobs, len(circuits), compile); err != nil {
			return nil, fmt.Errorf("experiments: corpus: %w", err)
		}
		p := CorpusPass{Pass: pass, Circuits: results, Wall: time.Since(passStart)}
		if cache != nil {
			p.CacheStats = cache.Stats().Sub(statsBefore)
		} else {
			p.CacheStats = perPass
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
// cmd/benchjson -corpus turns into BENCH_corpus.json sections and
// `make corpus-smoke` asserts on.
func printCorpusPass(w io.Writer, r *CorpusReport, p CorpusPass) {
	fmt.Fprintf(w, "\ncorpus pass %d (%s, workers=%d, jobs=%d)\n", p.Pass, r.Mode, r.Workers, r.Jobs)
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
	fmt.Fprintf(w, "corpus-total mode=%s pass=%d workers=%d jobs=%d circuits=%d degradations=%d cache_hits=%d cache_misses=%d wall_ns=%d\n",
		r.Mode, p.Pass, r.Workers, r.Jobs, len(p.Circuits), totalDeg,
		p.CacheStats.Hits, p.CacheStats.Misses, p.Wall.Nanoseconds())
}
