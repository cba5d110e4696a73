package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	quest "repro"
	"repro/internal/pipeline"
	"repro/internal/qasm"
	"repro/internal/ucache"
)

// cacheEntries sizes every synthesis cache the library workloads create:
// large enough that the whole corpus fits without eviction.
const cacheEntries = 1 << 16

// compileSetupReps is how many times compile-cold repeats its set-up; the
// reported setup_s is the median.
const compileSetupReps = 5

// deckRounds is how many compile-cold rounds the set-up generates; a run
// that gets further extends the deck outside the timed region.
const deckRounds = 4

// corpusDir is the committed corpus, relative to the checkout root.
const corpusDir = "examples/circuits/corpus"

// Selection grid of corpus-warm: every objective × M.
var (
	gridObjectives = []string{"cnot", "fidelity:manila", "hybrid:0.5"}
	gridSamples    = []int{16, 4}
)

// libOp is one library-workload op: an input circuit and the selection
// settings it compiles under.
type libOp struct {
	inst      instance
	orig      *quest.Circuit
	ideal     []float64 // reference output (compile-cold only)
	objective string
	samples   int
}

// libWorkload drives compile-cold or corpus-warm.
type libWorkload struct {
	slots int
	// ensemble runs the Manila ensemble and the TVD against op.ideal.
	ensemble bool
	// idealTVD computes corpus-warm's ideal-simulator ensemble TVD for
	// circuits of at most idealMaxQubits qubits, outside the timed region.
	idealTVD bool
	// cache returns the synthesis cache of the next op.
	cache func() *ucache.Cache
	// op returns the i-th op of the run.
	op func(i int) (*libOp, error)
	// round is the length of the op sequence's repeating unit (four
	// compile-cold rounds, one cycle of levels and time-step halves; a pass
	// over the corpus-warm grid), and roundRef
	// the time one takes on the reference host. A run measures as many
	// whole rounds as fill its time budget there, so the op count depends
	// neither on the host's speed nor on the program's: the parent and a
	// change measure the same ops, and op_tail_ms is the same percentile.
	round      int
	roundRef   time.Duration
	objectives map[string]quest.Objective
	manila     quest.Backend
	check      *checker
	// freshChecker drops the checker's memory after every op (compile-cold
	// never revisits a circuit).
	freshChecker bool
	// speed calibrates the host before every op, outside the timed region,
	// and steal records the stolen CPU ticks around every op.
	speed *hostSpeed
	steal *stealLog
	// collect runs a garbage collection before every op, outside the timed
	// region, so each op starts from the same heap state: peak_rss_mb then
	// depends on the ops, not on where the collector's cycle happened to
	// fall. It is set where the live heap is small enough for that to
	// cost about a millisecond (compile-cold), not on corpus-warm's
	// 150 MB warm cache.
	collect bool
}

// opOutcome is the measured result of one op.
type opOutcome struct {
	// at is when the untraced execution started.
	at      time.Time
	latency time.Duration
	// tracedLatency is the traced execution's time (traced runs only).
	tracedLatency time.Duration
	inCNOTs       int
	bestCNOTs     int
	tvd           float64
	hasTVD        bool
	digest        [32]byte
	err           error
	layers        *layerSample
	// peakRSS is the process's peak RSS during the op, in MB.
	peakRSS float64
	// Exact counts of the untraced result, compared by the self-test.
	blocks, candidates, members int
	hits, misses                uint64
}

// layerSample is what the traced execution of one op records.
type layerSample struct {
	qasm, partition, synth, selection, ensemble  time.Duration
	synthAllocs, selectionAllocs, ensembleAllocs uint64
	blocks, candidates, degraded, members        int
	ensembleMembers                              int
	hits, misses                                 uint64
	// overhead is traced/untraced − 1 for the same op.
	overhead float64
}

// libRun is everything one measured loop produced.
type libRun struct {
	outcomes []opOutcome
	measured time.Duration
	// unmeasured is the time spent between ops: checks, digests, RSS reads.
	unmeasured time.Duration
	digest     [32]byte
}

func (w *libWorkload) config(op *libOp) quest.Config {
	cfg := quest.Config{Parallelism: w.slots, SynthCache: w.cache()}
	if op.objective != "" {
		cfg.Objective = w.objectives[op.objective]
	}
	if op.samples > 0 {
		cfg.MaxSamples = op.samples
	}
	return cfg
}

func (w *libWorkload) runner() quest.RunnerCtx {
	return quest.BackendRunnerCtx(w.manila, 0, 1)
}

// runAPI is the measured op through the root quest API.
func (w *libWorkload) runAPI(ctx context.Context, op *libOp) (*quest.Result, []float64, error) {
	c, err := quest.ParseQASM(op.inst.qasm)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	res, err := quest.ApproximateCtx(ctx, c, w.config(op))
	if err != nil {
		return nil, nil, fmt.Errorf("approximate: %w", err)
	}
	if !w.ensemble {
		return res, nil, nil
	}
	probs, err := res.EnsembleProbabilitiesCtx(ctx, w.runner(), w.slots)
	if err != nil {
		return nil, nil, fmt.Errorf("ensemble: %w", err)
	}
	return res, probs, nil
}

// runTraced is the same op called one layer at a time, with a span around
// each call: qasm.Parse → PartitionStage → SynthesisStage → SelectionStage
// → EnsembleProbabilitiesCtx. quest.ApproximateCtx is exactly this
// composition, so the artifacts are identical.
func (w *libWorkload) runTraced(ctx context.Context, rec *recorder, opID int, op *libOp) (*quest.Result, []float64, *layerSample, error) {
	ls := &layerSample{}
	root := rec.begin("op", opID, -1)
	defer rec.end(root)
	cfg := w.config(op)

	id := rec.begin("qasm", opID, root)
	c, err := qasm.Parse(op.inst.qasm)
	ls.qasm, _ = rec.end(id)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse: %w", err)
	}

	id = rec.begin("partition", opID, root)
	pa, err := pipeline.PartitionStage(cfg).Run(ctx, c)
	ls.partition, _ = rec.end(id)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("partition: %w", err)
	}
	ls.blocks = len(pa.Blocks)

	id = rec.begin("synth", opID, root)
	sa, err := pipeline.SynthesisStage(cfg).Run(ctx, pa)
	ls.synth, ls.synthAllocs = rec.end(id)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("synthesis: %w", err)
	}
	for _, b := range sa.Blocks {
		ls.candidates += len(b.Candidates)
	}
	ls.degraded = len(sa.Degradations)
	ls.hits, ls.misses = sa.CacheStats.Hits, sa.CacheStats.Misses

	id = rec.begin("selection", opID, root)
	sel, err := pipeline.SelectionStage(cfg).Run(ctx, sa)
	ls.selection, ls.selectionAllocs = rec.end(id)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("selection: %w", err)
	}
	res := sel.Result()
	ls.members = len(res.Selected)
	if !w.ensemble {
		return res, nil, ls, nil
	}

	id = rec.begin("ensemble", opID, root)
	probs, err := res.EnsembleProbabilitiesCtx(ctx, w.runner(), w.slots)
	ls.ensemble, ls.ensembleAllocs = rec.end(id)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ensemble: %w", err)
	}
	ls.ensembleMembers = len(res.Selected)
	return res, probs, ls, nil
}

// measure runs the ops of the rounds that fill budget on the reference
// host (at least one), or with maxOps > 0 exactly maxOps ops, in a closed
// loop. Checks run between ops and are not part of the measured time.
// With rec set, every op runs twice, through the root API and traced, and
// both count as measured time.
func (w *libWorkload) measure(ctx context.Context, budget time.Duration, maxOps int, rec *recorder) (*libRun, error) {
	if maxOps == 0 {
		maxOps = w.round * max(1, int(math.Round(float64(budget)/float64(w.roundRef))))
	}
	run := &libRun{}
	if w.speed != nil {
		defer w.speed.watch()()
	}
	all := sha256.New()
	for i := 0; i < maxOps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interrupted: %w", err)
		}
		op, err := w.op(i)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if w.speed != nil {
			w.speed.sample(w.slots)
		}
		if w.collect {
			runtime.GC()
		}
		if err := resetPeakRSS("self"); err != nil {
			return nil, err
		}
		if w.steal != nil {
			w.steal.mark()
		}
		out := w.measureOp(ctx, rec, i, op)
		if w.steal != nil {
			w.steal.mark()
		}
		if out.peakRSS, err = readPeakRSS("self"); err != nil {
			return nil, err
		}
		run.measured += out.latency + out.tracedLatency
		run.unmeasured += time.Since(t0) - out.latency - out.tracedLatency
		all.Write(out.digest[:])
		run.outcomes = append(run.outcomes, out)
		if w.freshChecker {
			w.check = newChecker()
		}
	}
	copy(run.digest[:], all.Sum(nil))
	return run, nil
}

// measureOp times one op and checks its output.
func (w *libWorkload) measureOp(ctx context.Context, rec *recorder, i int, op *libOp) opOutcome {
	out := opOutcome{inCNOTs: op.orig.CNOTCount()}
	traceFirst := rec != nil && i%2 == 1
	var (
		tres   *quest.Result
		tprobs []float64
		terr   error
	)
	if traceFirst {
		t0 := time.Now()
		tres, tprobs, out.layers, terr = w.runTraced(ctx, rec, i, op)
		out.tracedLatency = time.Since(t0)
	}
	out.at = time.Now()
	res, probs, err := w.runAPI(ctx, op)
	out.latency = time.Since(out.at)
	if rec != nil && !traceFirst {
		t1 := time.Now()
		tres, tprobs, out.layers, terr = w.runTraced(ctx, rec, i, op)
		out.tracedLatency = time.Since(t1)
	}
	if err == nil && rec != nil {
		err = terr
	}
	if err != nil {
		out.err = fmt.Errorf("%s: %w", op.inst.name, err)
		out.layers = nil
		return out
	}
	out.bestCNOTs = res.BestCNOTs()
	out.blocks = len(res.Blocks)
	out.members = len(res.Selected)
	for _, b := range res.Blocks {
		out.candidates += len(b.Candidates)
	}
	out.hits, out.misses = res.CacheStats.Hits, res.CacheStats.Misses
	out.digest = digest(res, probs)
	if rec != nil {
		if digest(tres, tprobs) != out.digest {
			out.err = fmt.Errorf("%s: traced and untraced runs selected different outputs", op.inst.name)
			out.layers = nil
			return out
		}
		out.layers.overhead = float64(out.tracedLatency)/float64(out.latency) - 1
	}
	if err := w.check.checkResult(op.inst.name, op.orig, res); err != nil {
		out.err = err
		return out
	}
	switch {
	case w.ensemble:
		out.tvd, out.hasTVD = quest.TVD(op.ideal, probs), true
	case w.idealTVD && op.orig.NumQubits <= idealMaxQubits:
		out.tvd, out.hasTVD = w.check.idealEnsembleTVD(op.inst.name, op.orig, res), true
	}
	return out
}

// digest fingerprints an op's output: every selected member's choice,
// CNOT count, Σε bits and QASM, then the ensemble distribution's bits.
func digest(res *quest.Result, probs []float64) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, a := range res.Selected {
		fmt.Fprintf(h, "%v %d ", a.Choice, a.CNOTs)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a.EpsilonSum))
		h.Write(buf[:])
		h.Write([]byte(quest.WriteQASM(a.Circuit)))
	}
	for _, p := range probs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// peakRSSMB returns this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// newCompileCold builds compile-cold for a seed: the deck of distinct
// instances with their ideal outputs, and a fresh synthesis cache per op.
func newCompileCold(seed int64, slots int) (*libWorkload, error) {
	manila, err := quest.GetBackend("manila")
	if err != nil {
		return nil, fmt.Errorf("manila backend: %w", err)
	}
	gen := newGenerator(seed)
	var deck []*libOp
	rounds := 0
	extend := func() error {
		for _, s := range compileRound() {
			inst, err := gen.draw(s)
			if err != nil {
				return err
			}
			c, err := quest.ParseQASM(inst.qasm)
			if err != nil {
				return fmt.Errorf("%s: %w", inst.name, err)
			}
			deck = append(deck, &libOp{inst: inst, orig: c, ideal: quest.Simulate(c)})
		}
		rounds++
		return nil
	}
	for rounds < deckRounds {
		if err := extend(); err != nil {
			return nil, err
		}
	}
	return &libWorkload{
		slots:        slots,
		ensemble:     true,
		cache:        func() *ucache.Cache { return ucache.New(cacheEntries, 0) },
		manila:       manila,
		check:        newChecker(),
		freshChecker: true,
		collect:      true,
		round:        4 * len(compileRound()),
		roundRef:     8 * time.Second,
		op: func(i int) (*libOp, error) {
			for i >= len(deck) {
				if err := extend(); err != nil {
					return nil, err
				}
			}
			return deck[i], nil
		},
	}, nil
}

// warmupOp is compile-cold's set-up op: a fixed 4-qubit TFIM instance run
// end to end once, so code paths and the heap are warm before timing.
func warmupOp() (*libOp, error) {
	g := newGenerator(0)
	inst, err := g.draw(stratum{"tfim", 4})
	if err != nil {
		return nil, err
	}
	c, err := quest.ParseQASM(inst.qasm)
	if err != nil {
		return nil, err
	}
	return &libOp{inst: inst, orig: c, ideal: quest.Simulate(c)}, nil
}

// runCompileCold times the set-up the program does before the first op:
// the Manila backend lookup and one op end to end with a fresh cache, so
// code paths and the heap are warm. The deck and its ideal outputs are the
// benchmark's own work; they are made once, outside the timed set-up.
func runCompileCold(ctx context.Context, opts options) (*report, error) {
	w, err := newCompileCold(opts.seed, slots)
	if err != nil {
		return nil, fmt.Errorf("compile-cold set-up: %w", err)
	}
	op, err := warmupOp()
	if err != nil {
		return nil, fmt.Errorf("compile-cold warm-up: %w", err)
	}
	speed, steal := &hostSpeed{}, &stealLog{}
	watched := speed.watch()
	var (
		setups []time.Duration
		starts []time.Time
	)
	for rep := 0; rep < compileSetupReps; rep++ {
		speed.sample(slots)
		runtime.GC()
		steal.mark()
		t0 := time.Now()
		starts = append(starts, t0)
		if w.manila, err = quest.GetBackend("manila"); err != nil {
			return nil, fmt.Errorf("manila backend: %w", err)
		}
		if _, _, err := w.runAPI(ctx, op); err != nil {
			return nil, fmt.Errorf("compile-cold warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		steal.mark()
	}
	watched()
	var refs []time.Duration
	for i, d := range setups {
		refs = append(refs, reference(d, starts[i], speed, steal))
	}
	return finishLibrary(ctx, opts, "compile-cold", w, setups, medianDuration(refs), speed)
}

// corpusCircuit is one committed corpus file.
type corpusCircuit struct {
	name string
	qasm string
	orig *quest.Circuit
}

// loadCorpus reads every .qasm file of the corpus directory in name order.
func loadCorpus(dir string) ([]corpusCircuit, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.qasm"))
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("corpus: no .qasm files in %s", dir)
	}
	sort.Strings(files)
	out := make([]corpusCircuit, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		c, err := quest.ParseQASM(string(data))
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", f, err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".qasm")
		out = append(out, corpusCircuit{name: name, qasm: string(data), orig: c})
	}
	return out, nil
}

// coldCorpus compiles every corpus circuit once, cold, into one new shared
// synthesis cache and returns it with the time the compilations took.
// With speed set, the host is calibrated before each circuit, untimed.
func coldCorpus(ctx context.Context, corpus []corpusCircuit, slots int, speed *hostSpeed) (*ucache.Cache, time.Duration, error) {
	cache := ucache.New(cacheEntries, 0)
	if speed != nil {
		defer speed.watch()()
	}
	var took time.Duration
	for _, cc := range corpus {
		if speed != nil {
			speed.sample(slots)
		}
		t0 := time.Now()
		c, err := quest.ParseQASM(cc.qasm)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", cc.name, err)
		}
		if _, err := quest.ApproximateCtx(ctx, c, quest.Config{Parallelism: slots, SynthCache: cache}); err != nil {
			return nil, 0, fmt.Errorf("cold compile %s: %w", cc.name, err)
		}
		took += time.Since(t0)
	}
	return cache, took, nil
}

// newCorpusWarm builds corpus-warm over a warm cache: op i is one
// (circuit, objective, M) cell of the grid; every pass over the grid runs
// in its own seeded order.
func newCorpusWarm(seed int64, slots int, corpus []corpusCircuit, cache *ucache.Cache) (*libWorkload, error) {
	objectives := map[string]quest.Objective{}
	for _, spec := range gridObjectives {
		obj, err := quest.SelectionObjective(spec)
		if err != nil {
			return nil, fmt.Errorf("objective %s: %w", spec, err)
		}
		objectives[spec] = obj
	}
	var cells []*libOp
	for _, cc := range corpus {
		for _, spec := range gridObjectives {
			for _, m := range gridSamples {
				cells = append(cells, &libOp{
					inst:      instance{name: cc.name, family: cc.name, qubits: cc.orig.NumQubits, qasm: cc.qasm},
					orig:      cc.orig,
					objective: spec,
					samples:   m,
				})
			}
		}
	}
	var order []int
	return &libWorkload{
		slots:      slots,
		idealTVD:   true,
		cache:      func() *ucache.Cache { return cache },
		objectives: objectives,
		check:      newChecker(),
		round:      len(cells),
		roundRef:   2800 * time.Millisecond,
		op: func(i int) (*libOp, error) {
			pass, k := i/len(cells), i%len(cells)
			if k == 0 {
				order = rand.New(rand.NewSource(seed + int64(pass))).Perm(len(cells))
			}
			return cells[order[k]], nil
		},
	}, nil
}

func runCorpusWarm(ctx context.Context, opts options) (*report, error) {
	corpus, err := loadCorpus(filepath.Join(opts.root, corpusDir))
	if err != nil {
		return nil, err
	}
	// One cold pass, not several: it takes about 12 s on two slots on the
	// reference host, and the run budget has no room for more.
	speed := &hostSpeed{}
	cache, took, err := coldCorpus(ctx, corpus, slots, speed)
	if err != nil {
		return nil, fmt.Errorf("corpus-warm set-up: %w", err)
	}
	w, err := newCorpusWarm(opts.seed, slots, corpus, cache)
	if err != nil {
		return nil, err
	}
	return finishLibrary(ctx, opts, "corpus-warm", w, []time.Duration{took}, speed.scale(took), speed)
}

// finishLibrary measures a set-up library workload and builds its report.
// setups are the set-up times as measured and setupRef their median on the
// reference host's scale; setupSpeed holds the calibrations made during
// the set-up.
func finishLibrary(ctx context.Context, opts options, name string, w *libWorkload, setups []time.Duration, setupRef time.Duration, setupSpeed *hostSpeed) (*report, error) {
	var rec *recorder
	if opts.trace {
		rec = newRecorder()
	}
	w.speed, w.steal = &hostSpeed{}, &stealLog{}
	run, err := w.measure(ctx, opts.seconds, 0, rec)
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: len(run.outcomes), Metrics: map[string]metric{}}
	var (
		lat       []time.Duration
		scaled    []time.Duration
		in, best  float64
		tvds, rss []float64
		firstErrs []string
	)
	for _, o := range run.outcomes {
		if o.err != nil {
			rep.Failed++
			if len(firstErrs) < 5 {
				firstErrs = append(firstErrs, o.err.Error())
			}
			continue
		}
		lat = append(lat, o.latency)
		scaled = append(scaled, reference(o.latency, o.at, w.speed, w.steal))
		rss = append(rss, o.peakRSS)
		in += float64(o.inCNOTs)
		best += float64(o.bestCNOTs)
		if o.hasTVD {
			tvds = append(tvds, o.tvd)
		}
	}
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(opts.log, "%s seed=%d: set-up %d× %v median %.3fs; ops attempted=%d succeeded=%d failed=%d; measured %.2fs, checks and digests %.2fs\n",
		name, opts.seed, len(setups), setups, medianDuration(setups).Seconds(),
		rep.Attempted, rep.Attempted-rep.Failed, rep.Failed, run.measured.Seconds(), run.unmeasured.Seconds())
	for _, e := range firstErrs {
		fmt.Fprintf(opts.log, "  failed: %s\n", e)
	}
	if rec != nil {
		rep.Metrics = libraryLayers(run, w.speed.factor())
		if err := rec.write(opts.traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(opts.log, "%s: %d spans written to %s\n", name, len(rec.spans), opts.traceOut)
		return rep, nil
	}
	st, err := latencyStats(lat)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sst, err := latencyStats(scaled)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var sum time.Duration
	for _, d := range scaled {
		sum += d
	}
	f, sf := w.speed.factor(), setupSpeed.factor()
	fmt.Fprintf(opts.log, "%s: op_tail_ms is p%.1f of %d ops (%d beyond it); peak RSS over the whole process life %.1f MB\n",
		name, st.tailPct, st.measured, tailBeyond, peakRSSMB())
	fmt.Fprintf(opts.log, "%s: host factor %.3f over the ops (%.1f %% stolen), %.3f over the set-up (%.1f %%); as measured: set-up %.3fs, op p50 %.1f ms, tail %.1f ms\n",
		name, f, 100*w.speed.stolenShare(), sf, 100*setupSpeed.stolenShare(), medianDuration(setups).Seconds(), ms(st.p50), ms(st.tail))
	rep.Metrics["setup_s"] = metric{setupRef.Seconds(), "s"}
	rep.Metrics["op_p50_ms"] = metric{ms(sst.p50), "ms"}
	rep.Metrics["op_tail_ms"] = metric{ms(sst.tail), "ms"}
	rep.Metrics["ops_per_s"] = metric{float64(len(scaled)) / sum.Seconds(), "1/s"}
	rep.Metrics["cnot_ratio"] = metric{ratio(best, in), "ratio"}
	rep.Metrics["ensemble_tvd"] = metric{mean(tvds), "tvd"}
	rep.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	return rep, nil
}
