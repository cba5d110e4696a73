// Command questbench is the repository's end-to-end benchmark. One run
// measures one workload, as much of it as takes --seconds on a reference
// host (see calibrate.go), and prints, as the last line of
// standard output, a JSON object with the run's correctness verdict, the
// ops attempted and failed, and its metrics:
//
//	questbench --workload compile-cold --seed 1 --seconds 6 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists and which layer it
// loads):
//
//	compile-cold   closed loop: QASM → quest.ParseQASM → quest.ApproximateCtx
//	               (fresh synthesis cache) → Manila ensemble → TVD
//	corpus-warm    cold compile of examples/circuits/corpus as set-up, then
//	               recompiles under an objective × M grid from the warm cache
//	serve-manila   open-loop HTTP load on a questd process built from
//	               cmd/questd
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// reports the per-layer metrics instead: on the library workloads every op
// runs once through the root API and once stage by stage with spans
// recorded around each internal/pipeline stage, and the per-op difference
// is the tracing overhead; on serve-manila the layers are timed from job
// timestamps and HTTP calls. Spans are kept in memory and written to
// --trace-out when the run ends.
//
// Every time the run reports is scaled to a reference host speed by a
// calibration kernel it times alongside the ops (see calibrate.go), so
// that the load other tenants put on a shared host does not move it.
//
// Every op's output is checked outside the timed region; an op whose
// check fails counts as failed. The run exits non-zero, without a result
// line, when it cannot build its inputs or measured too few ops for a
// real tail percentile.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// Fixed resource limits: every workload runs in one client process with at
// most this many OS threads running Go code (GOMAXPROCS, set by run.sh),
// synthesis slots, ensemble workers, questd workers and HTTP connections.
const slots = 2

// minOps is the fewest measured ops that still leave a real tail: the tail
// percentile needs ten ops beyond it, and with forty ops it is p75.
const minOps = 40

// tailBeyond is how many ops must lie beyond the reported tail percentile.
const tailBeyond = 10

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string
	questd   string
	traceOut string
	// log receives the human-readable report lines.
	log io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("questbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: compile-cold, corpus-warm or serve-manila")
		seed     = fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = fs.Int("seconds", 6, "measured time per run in seconds")
		trace    = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		root     = fs.String("root", ".", "repository checkout holding examples/circuits/corpus")
		questd   = fs.String("questd", "", "questd binary built from cmd/questd (serve-manila)")
		traceOut = fs.String("trace-out", "", "file for the traced run's spans (default .bench_build/traces/<workload>-<seed>.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "questbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		root:     *root,
		questd:   *questd,
		traceOut: *traceOut,
		log:      stdout,
	}
	if opts.traceOut == "" {
		opts.traceOut = filepath.Join(opts.root, ".bench_build", "traces",
			fmt.Sprintf("%s-%d.json", opts.workload, opts.seed))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		rep *report
		err error
	)
	switch opts.workload {
	case "compile-cold":
		rep, err = runCompileCold(ctx, opts)
	case "corpus-warm":
		rep, err = runCorpusWarm(ctx, opts)
	case "serve-manila":
		rep, err = runServe(ctx, opts)
	default:
		err = fmt.Errorf("unknown workload %q (want compile-cold, corpus-warm or serve-manila)", opts.workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "questbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "questbench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// errTooFewOps reports a run whose op count cannot support op_tail_ms.
var errTooFewOps = errors.New("too few ops for a real op_tail_ms")

// opStats summarises the measured latencies of a run's successful ops.
type opStats struct {
	p50      time.Duration
	tail     time.Duration
	tailPct  float64
	measured int
}

// latencyStats returns the median and the highest percentile with at least
// tailBeyond ops beyond it. It fails when fewer than minOps ops succeeded.
func latencyStats(lat []time.Duration) (opStats, error) {
	n := len(lat)
	if n < minOps {
		return opStats{}, fmt.Errorf("%w: %d ops succeeded, need %d", errTooFewOps, n, minOps)
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := n - tailBeyond - 1
	return opStats{
		p50:      medianSorted(s),
		tail:     s[k],
		tailPct:  100 * float64(k+1) / float64(n),
		measured: n,
	}, nil
}

func medianSorted(s []time.Duration) time.Duration {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// median returns the median of the values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDuration returns the median of the durations (0 for none).
func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return medianSorted(s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean returns the arithmetic mean (0 for none).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
