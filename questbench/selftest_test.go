package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"testing"

	quest "repro"
)

// The benchmark's own test: on a tiny size of each workload, the exact
// counts and output digests the benchmark reports must repeat bit for bit
// across two runs, across one and two synthesis slots, and with tracing
// on and off. Run it from this directory with `go test ./...`.

// libCounts are the exact quantities of a library run.
type libCounts struct {
	digest         [32]byte
	in, best       int
	tvdBits        uint64
	blocks         int
	candidates     int
	members        int
	hits, misses   uint64
	failed         int
	maxMissesPerOp uint64
	tracedMismatch string
}

func libCountsOf(run *libRun) libCounts {
	var c libCounts
	c.digest = run.digest
	var tvd float64
	for i, o := range run.outcomes {
		if o.err != nil {
			c.failed++
			continue
		}
		c.in += o.inCNOTs
		c.best += o.bestCNOTs
		tvd += o.tvd
		c.blocks += o.blocks
		c.candidates += o.candidates
		c.members += o.members
		c.hits += o.hits
		c.misses += o.misses
		if o.misses > c.maxMissesPerOp {
			c.maxMissesPerOp = o.misses
		}
		if ls := o.layers; ls != nil && c.tracedMismatch == "" &&
			(ls.candidates != o.candidates || ls.members != o.members || ls.hits != o.hits || ls.misses != o.misses) {
			c.tracedMismatch = fmt.Sprintf("op %d: traced counts %+v differ from the untraced result", i, *ls)
		}
	}
	c.tvdBits = math.Float64bits(tvd)
	return c
}

type variant struct {
	slots int
	trace bool
}

var variants = []variant{{2, false}, {2, false}, {1, false}, {2, true}}

func compareLib(t *testing.T, name string, counts []libCounts) {
	t.Helper()
	for i, c := range counts {
		if c.failed > 0 {
			t.Errorf("%s %+v: %d ops failed their output check", name, variants[i], c.failed)
		}
		if c.tracedMismatch != "" {
			t.Errorf("%s %+v: %s", name, variants[i], c.tracedMismatch)
		}
		if i == 0 {
			continue
		}
		ref := counts[0]
		ref.tracedMismatch, c.tracedMismatch = "", ""
		if c != ref {
			t.Errorf("%s: %+v counts %+v differ from %+v counts %+v", name, variants[i], c, variants[0], ref)
		}
	}
}

// compileColdPicks are the deck positions the compile-cold self-test runs:
// tfim-5, qaoa-5 and vqe-5 of the first round. Each partitions into
// several blocks, so two synthesis slots really run blocks side by side.
var compileColdPicks = []int{6, 11, 12}

func TestCompileColdCountsRepeat(t *testing.T) {
	ctx := context.Background()
	var counts []libCounts
	for _, v := range variants {
		w, err := newCompileCold(7, v.slots)
		if err != nil {
			t.Fatal(err)
		}
		deck := w.op
		w.op = func(i int) (*libOp, error) { return deck(compileColdPicks[i]) }
		var rec *recorder
		if v.trace {
			rec = newRecorder()
		}
		run, err := w.measure(ctx, 0, len(compileColdPicks), rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range run.outcomes {
			if o.err == nil && o.blocks < 2 {
				t.Errorf("compile-cold %+v: an op partitioned into %d block, want several", v, o.blocks)
			}
		}
		counts = append(counts, libCountsOf(run))
	}
	compareLib(t, "compile-cold", counts)
}

func TestCorpusWarmCountsRepeat(t *testing.T) {
	ctx := context.Background()
	corpus, err := loadCorpus(filepath.Join("..", corpusDir))
	if err != nil {
		t.Fatal(err)
	}
	// The three circuits whose cold compile takes well under a second.
	var small []corpusCircuit
	for _, cc := range corpus {
		switch cc.name {
		case "adder_8", "qft_8", "tfim_16":
			small = append(small, cc)
		}
	}
	if len(small) != 3 {
		t.Fatalf("found %d of the 3 small corpus circuits", len(small))
	}
	var counts []libCounts
	for _, v := range variants {
		cache, _, err := coldCorpus(ctx, small, v.slots, nil)
		if err != nil {
			t.Fatal(err)
		}
		w, err := newCorpusWarm(3, v.slots, small, cache)
		if err != nil {
			t.Fatal(err)
		}
		var rec *recorder
		if v.trace {
			rec = newRecorder()
		}
		run, err := w.measure(ctx, 0, w.round, rec)
		if err != nil {
			t.Fatal(err)
		}
		c := libCountsOf(run)
		if c.misses != 0 {
			t.Errorf("corpus-warm %+v: %d synthesis-cache misses after the cold set-up, want 0", v, c.misses)
		}
		counts = append(counts, c)
	}
	compareLib(t, "corpus-warm", counts)
}

// serveCounts are the exact quantities of a serve run: every job's result
// SHA in schedule order, the CNOT totals and the summed Manila TVD.
type serveCounts struct {
	digest   [32]byte
	in, best int
	tvdBits  uint64
	failed   int
}

func TestServeCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts questd")
	}
	ctx := context.Background()
	bin := filepath.Join(t.TempDir(), "questd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/questd").CombinedOutput(); err != nil {
		t.Fatalf("build questd: %v\n%s", err, out)
	}
	manila, err := quest.GetBackend("manila")
	if err != nil {
		t.Fatal(err)
	}
	var ref serveCounts
	for i, workers := range []int{2, 2, 1} {
		run, err := serveMeasure(ctx, t.TempDir(), bin, 5, workers, 1, 0, 18)
		if err != nil {
			t.Fatal(err)
		}
		checkServeJobs(run, manila.Name())
		h := sha256.New()
		var c serveCounts
		var tvd float64
		for _, j := range run.jobs {
			if j.err != nil {
				c.failed++
				t.Errorf("workers=%d: %v", workers, j.err)
				continue
			}
			fmt.Fprintln(h, j.result.SHA)
			c.in += j.result.OriginalCNOTs
			c.best += j.result.BestCNOTs
			tvd += j.result.Stats.TVD
		}
		copy(c.digest[:], h.Sum(nil))
		c.tvdBits = math.Float64bits(tvd)
		if i == 0 {
			ref = c
		} else if c != ref {
			t.Errorf("workers=%d: counts %+v differ from the first run's %+v", workers, c, ref)
		}
	}
}
