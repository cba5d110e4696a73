package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	quest "repro"
	"repro/internal/linalg"
	"repro/internal/sim"
)

// serve-manila settings, recorded in BENCHMARK.json.
const (
	// serveRate is the open-loop arrival rate in jobs per second on the
	// reference host, under a third of what questd sustains on this
	// workload with two workers there (about 14/s: at 14/s the median
	// queue wait is 76 ms, at 18/s 2 s and growing). At 8/s queueing
	// behind the slowest fresh jobs moved op_tail_ms by 20–50 % between
	// runs of one seed; at 4/s latency is mostly service time. On a
	// slower host the arrivals are spaced by its host factor, so questd
	// stays as loaded.
	serveRate = 4.0
	// serveUnit is the schedule's unit: a run sends whole units of this
	// many jobs, at least one, as many as fill its window at serveRate on
	// the reference host. Sixty jobs hold twenty new circuits, four of
	// each family, which take every level and time-step half once (see
	// generator.level).
	serveUnit = 60
	// serveSetupCals is how many times the host is calibrated before each
	// set-up repetition: the set-up's latest calibrations space the first
	// arrivals, and on a busy host the kernel's time moves from one sample
	// to the next.
	serveSetupCals = 4
	// serveLatencyLimit is the latency limit: a job counts towards
	// ops_per_s only if it finished within this time of when it was due.
	serveLatencyLimit = 5 * time.Second
	// serveSetupReps is how many times the set-up starts questd on an
	// empty data directory and runs one warm-up job through it; setup_s
	// is the median time from process start to the warm-up result.
	serveSetupReps = 5
	// servePoll is how often outstanding jobs are polled. Latency comes
	// from questd's finished_at, so the poll interval does not enter it.
	servePoll = 25 * time.Millisecond
	// serveDrain bounds how long the run waits for jobs still in flight
	// when the measured window closes.
	serveDrain = 90 * time.Second
	// serveCalEvery is how often the client calibrates the host while
	// questd works.
	serveCalEvery = 250 * time.Millisecond
	// servePaceCals is how many of the latest calibrations space the next
	// arrival: 1/serveRate s times their host factor, so questd stays as
	// loaded when the host's speed moves during a run.
	servePaceCals = 8
)

// jobParams, submitRequest, jobStatus, resultPayload and healthz mirror
// the parts of questd's HTTP API (internal/serve) the benchmark uses.
type jobParams struct {
	MaxSamples int    `json:"max_samples,omitempty"`
	Objective  string `json:"objective,omitempty"`
	Backend    string `json:"backend,omitempty"`
}

type submitRequest struct {
	QASM   string    `json:"qasm"`
	Params jobParams `json:"params"`
}

type jobStatus struct {
	ID          string    `json:"id"`
	State       string    `json:"state"`
	Error       string    `json:"error"`
	ArtifactKey string    `json:"artifact_key"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

type resultPayload struct {
	OriginalCNOTs int     `json:"original_cnots"`
	BestCNOTs     int     `json:"best_cnots"`
	Threshold     float64 `json:"threshold"`
	Selected      []struct {
		QASM       string  `json:"qasm"`
		CNOTs      int     `json:"cnots"`
		EpsilonSum float64 `json:"epsilon_sum"`
	} `json:"selected"`
	Stats *struct {
		Backend string  `json:"backend"`
		TVD     float64 `json:"tvd"`
	} `json:"stats"`
	SHA string `json:"sha"`
}

type healthz struct {
	Counters struct {
		Failed         float64 `json:"failed"`
		Retried        float64 `json:"retried"`
		Shed           float64 `json:"shed"`
		ArtifactHits   float64 `json:"artifact_hits"`
		ArtifactMisses float64 `json:"artifact_misses"`
	} `json:"counters"`
}

// sub removes the set-up's warm-up jobs from the counters.
func (h *healthz) sub(base healthz) {
	c, b := &h.Counters, base.Counters
	c.Failed -= b.Failed
	c.Retried -= b.Retried
	c.Shed -= b.Shed
	c.ArtifactHits -= b.ArtifactHits
	c.ArtifactMisses -= b.ArtifactMisses
}

// serveJob is one arrival of the schedule and what the client saw of it.
type serveJob struct {
	inst      instance
	orig      *quest.Circuit
	objective string
	samples   int
	due       time.Duration

	id        string
	late      time.Duration
	submitDur time.Duration
	status    jobStatus
	result    *resultPayload
	resultDur time.Duration
	err       error
}

// serveObjectives are the objectives a circuit is submitted under, in
// order: the first arrival compiles it fresh (synthesis plus an
// artifact-store write), the later ones are served from questd's artifact
// store (a read, then Reselect and the ensemble). Every job keeps the
// default M = 16, so all artifact hits do the same kind of work.
var serveObjectives = []string{"cnot", "fidelity:manila", "hybrid:0.5"}

// serveSchedule builds n arrivals, without their due times: n/3 new
// circuits, each sent three times. Every third arrival is a new circuit;
// the two between resubmit the circuits introduced two and four
// new-circuit slots earlier under the next objective, and the schedule
// ends with the resubmissions of its last circuits. The seed draws the
// circuits; the mix of fresh and artifact-hit jobs is the same for every
// seed.
func serveSchedule(seed int64, n int) ([]*serveJob, error) {
	if n%3 != 0 {
		return nil, fmt.Errorf("serve schedule of %d jobs: want a multiple of 3", n)
	}
	gen := newGenerator(seed)
	type circuitCells struct {
		inst instance
		orig *quest.Circuit
	}
	fresh := n / 3
	var circuits []circuitCells
	var jobs []*serveJob
	for k := 0; len(jobs) < n; k++ {
		for j := range serveObjectives {
			if j == 0 && k < fresh {
				inst, err := gen.draw(serveStratum(k))
				if err != nil {
					return nil, err
				}
				c, err := quest.ParseQASM(inst.qasm)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", inst.name, err)
				}
				circuits = append(circuits, circuitCells{inst, c})
			}
			src := k - 2*j
			if src < 0 || src >= fresh {
				continue
			}
			jobs = append(jobs, &serveJob{
				inst:      circuits[src].inst,
				orig:      circuits[src].orig,
				objective: serveObjectives[j],
				samples:   16,
			})
		}
	}
	return jobs, nil
}

// questd is one running questd process.
type questd struct {
	cmd  *exec.Cmd
	base string
	// rss holds questd's peak RSS in each second of the measured run, in MB.
	rss []float64
}

// startQuestd starts questd on an empty data directory and waits until it
// reports ready; it returns the process and the time that took.
func startQuestd(ctx context.Context, bin, dir string, workers int, client *http.Client) (*questd, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, fmt.Errorf("questd dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("questd dir: %w", err)
	}
	logf, err := os.Create(filepath.Join(dir, "questd.log"))
	if err != nil {
		return nil, 0, fmt.Errorf("questd log: %w", err)
	}
	defer logf.Close()
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(bin, "-dir", filepath.Join(dir, "data"), "-addr", "127.0.0.1:0",
		"-addr-file", addrFile, "-workers", fmt.Sprint(workers))
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start questd: %w", err)
	}
	q := &questd{cmd: cmd}
	deadline := t0.Add(30 * time.Second)
	for {
		if q.base == "" {
			if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
				q.base = "http://" + strings.TrimSpace(string(addr))
			}
		}
		if q.base != "" && q.ready(ctx, client) {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			_, _ = q.stop()
			return nil, 0, fmt.Errorf("questd did not become ready (log in %s)", logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.warmUp(ctx, client); err != nil {
		_, _ = q.stop()
		return nil, 0, fmt.Errorf("questd warm-up: %w", err)
	}
	return q, time.Since(t0), nil
}

// warmUp runs compile-cold's fixed warm-up circuit through questd as one
// fresh job and waits for its result, so code paths, the heap and the
// artifact store are live before the measured window.
func (q *questd) warmUp(ctx context.Context, client *http.Client) error {
	op, err := warmupOp()
	if err != nil {
		return err
	}
	j := &serveJob{inst: op.inst, orig: op.orig, samples: 16}
	if err := q.submit(ctx, client, j); err != nil {
		return err
	}
	for {
		if _, err := getJSON(ctx, client, q.base+"/v1/jobs/"+j.id, &j.status); err != nil {
			return err
		}
		switch j.status.State {
		case "done":
			var res resultPayload
			_, err := getJSON(ctx, client, q.base+"/v1/jobs/"+j.id+"/result", &res)
			return err
		case "failed", "cancelled":
			return fmt.Errorf("warm-up job %s: %s", j.status.State, j.status.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (q *questd) ready(ctx context.Context, client *http.Client) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, q.base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, waits for questd to drain and exit (killing it after
// 30 s), and returns its peak resident set size in MB.
func (q *questd) stop() (float64, error) {
	if err := q.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, fmt.Errorf("stop questd: %w", err)
	}
	waited := make(chan error, 1)
	go func() { waited <- q.cmd.Wait() }()
	var err error
	select {
	case err = <-waited:
	case <-time.After(30 * time.Second):
		_ = q.cmd.Process.Kill()
		err = <-waited
	}
	var rss float64
	if ru, ok := q.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rss, fmt.Errorf("questd exit: %w", err)
	}
	return rss, nil
}

// getJSON fetches url into v and returns how long the call took.
func getJSON(ctx context.Context, client *http.Client, url string, v any) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return d, fmt.Errorf("GET %s: %w", url, err)
	}
	return d, nil
}

// submit posts one job.
func (q *questd) submit(ctx context.Context, client *http.Client, j *serveJob) error {
	body, err := json.Marshal(submitRequest{
		QASM:   j.inst.qasm,
		Params: jobParams{MaxSamples: j.samples, Objective: j.objective, Backend: "manila"},
	})
	if err != nil {
		return fmt.Errorf("encode submission: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, q.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	j.submitDur = time.Since(t0)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	j.id = st.ID
	return nil
}

// drive sends the schedule open-loop from start on one goroutine and
// connection, each arrival due spacing() after the one before, and polls
// every submitted job until it is terminal on the other.
func (q *questd) drive(ctx context.Context, client *http.Client, jobs []*serveJob, start time.Time, spacing func() time.Duration) {
	// Sized to the number of sends, so the sender never blocks.
	submitted := make(chan *serveJob, len(jobs))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(submitted)
		var at time.Duration
		for k, j := range jobs {
			if k > 0 {
				at += spacing()
			}
			j.due = at
			due := start.Add(j.due)
			select {
			case <-time.After(time.Until(due)):
			case <-ctx.Done():
				j.err = fmt.Errorf("not sent: %w", ctx.Err())
				continue
			}
			j.late = time.Since(due)
			if j.err = q.submit(ctx, client, j); j.err != nil {
				continue
			}
			submitted <- j
		}
	}()
	q.poll(ctx, client, submitted)
	wg.Wait()
}

// sampleRSS records questd's peak RSS since the previous sample and starts
// a new interval.
func (q *questd) sampleRSS() error {
	pid := fmt.Sprint(q.cmd.Process.Pid)
	mb, err := readPeakRSS(pid)
	if err != nil {
		return err
	}
	q.rss = append(q.rss, mb)
	return resetPeakRSS(pid)
}

// poll tracks submitted jobs until every one is terminal or ctx ends.
func (q *questd) poll(ctx context.Context, client *http.Client, submitted <-chan *serveJob) {
	var outstanding []*serveJob
	open := true
	tick := time.NewTicker(servePoll)
	defer tick.Stop()
	second := time.NewTicker(time.Second)
	defer second.Stop()
	for open || len(outstanding) > 0 {
		select {
		case <-second.C:
			if err := q.sampleRSS(); err != nil {
				q.rss = nil
				second.Stop()
			}
			continue
		case j, ok := <-submitted:
			if !ok {
				open = false
				continue
			}
			outstanding = append(outstanding, j)
			continue
		case <-tick.C:
		case <-ctx.Done():
			for _, j := range outstanding {
				j.err = fmt.Errorf("job %s still %s when the run ended", j.id, j.status.State)
			}
			return
		}
		kept := outstanding[:0]
		for _, j := range outstanding {
			if _, err := getJSON(ctx, client, q.base+"/v1/jobs/"+j.id, &j.status); err != nil {
				j.err = err
				continue
			}
			switch j.status.State {
			case "done":
				var res resultPayload
				d, err := getJSON(ctx, client, q.base+"/v1/jobs/"+j.id+"/result", &res)
				j.resultDur = d
				if err != nil {
					j.err = err
					continue
				}
				j.result = &res
			case "failed", "cancelled":
				j.err = fmt.Errorf("job %s %s: %s", j.id, j.status.State, j.status.Error)
			default:
				kept = append(kept, j)
			}
		}
		outstanding = kept
	}
}

// checkServeResult verifies one job's result from the QASM it returned:
// every member's CNOT count and Sec. 3.8 bound (densely; serve circuits
// have five qubits), Σε ≤ threshold, and the Manila ensemble report.
func checkServeResult(j *serveJob, u *linalg.Matrix, manila string) error {
	res := j.result
	if res.OriginalCNOTs != j.orig.CNOTCount() {
		return fmt.Errorf("original_cnots %d, input has %d", res.OriginalCNOTs, j.orig.CNOTCount())
	}
	if len(res.Selected) == 0 {
		return errors.New("no selected approximation")
	}
	if len(res.Selected) > j.samples {
		return fmt.Errorf("%d members selected, M is %d", len(res.Selected), j.samples)
	}
	best := math.MaxInt
	for i, m := range res.Selected {
		c, err := quest.ParseQASM(m.QASM)
		if err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		if c.CNOTCount() != m.CNOTs {
			return fmt.Errorf("member %d reports %d CNOTs, its QASM has %d", i, m.CNOTs, c.CNOTCount())
		}
		if m.EpsilonSum > res.Threshold+thresholdTol {
			return fmt.Errorf("member %d: Σε %g exceeds the threshold %g", i, m.EpsilonSum, res.Threshold)
		}
		if c.NumQubits != j.orig.NumQubits {
			return fmt.Errorf("member %d has %d qubits, input %d", i, c.NumQubits, j.orig.NumQubits)
		}
		if err := checkDense(u, c, m.EpsilonSum); err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		if m.CNOTs < best {
			best = m.CNOTs
		}
	}
	if best != res.BestCNOTs {
		return fmt.Errorf("best_cnots %d, members' minimum %d", res.BestCNOTs, best)
	}
	if res.Stats == nil || res.Stats.Backend != manila {
		return errors.New("result carries no Manila ensemble report")
	}
	return nil
}

func runServe(ctx context.Context, opts options) (*report, error) {
	if opts.questd == "" {
		return nil, errors.New("serve-manila needs --questd")
	}
	manila, err := quest.GetBackend("manila")
	if err != nil {
		return nil, fmt.Errorf("manila backend: %w", err)
	}
	run, err := serveMeasure(ctx, opts.root, opts.questd, opts.seed, slots, serveSetupReps, opts.seconds, 0)
	if err != nil {
		return nil, fmt.Errorf("serve-manila: %w", err)
	}
	checkServeJobs(run, manila.Name())
	return serveReport(opts, run)
}

// serveRun is what one serve-manila measurement collected.
type serveRun struct {
	jobs   []*serveJob
	start  time.Time
	setups []time.Duration
	// setupRefs are the set-up times on the reference host's scale.
	setupRefs []time.Duration
	health    healthz
	// setupSpeed and speed hold the host calibrations made during the
	// set-up and while the schedule ran, and steal the stolen CPU ticks
	// while it ran.
	setupSpeed, speed *hostSpeed
	steal             *stealLog
	// interval is the mean time between arrivals.
	interval time.Duration
	// rss holds questd's peak RSS per second of the run; lifePeak is its
	// peak over its whole life, set-up included.
	rss      []float64
	lifePeak float64
}

// serveMeasure starts questd setupReps times on an empty data directory
// under root/.bench_build/serve and keeps the last one. It then drives
// the seed's first arrivals, as many whole units of serveUnit as fill
// window at serveRate (or, with maxJobs > 0, maxJobs), against it, each
// spaced 1/serveRate s times the host factor of the latest calibrations,
// and stops it. The job count depends on neither the host's speed
// nor the program's, so every run of a seed measures the same jobs.
func serveMeasure(ctx context.Context, root, bin string, seed int64, workers, setupReps int, window time.Duration, maxJobs int) (*serveRun, error) {
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: slots, MaxIdleConnsPerHost: slots},
	}
	defer client.CloseIdleConnections()
	base := filepath.Join(root, ".bench_build", "serve")
	defer os.RemoveAll(base)

	run := &serveRun{setupSpeed: &hostSpeed{}, speed: &hostSpeed{}, steal: &stealLog{}}
	var q *questd
	watched := run.setupSpeed.watch()
	setupSteal := &stealLog{}
	var starts []time.Time
	for rep := 0; rep < setupReps; rep++ {
		var (
			d   time.Duration
			err error
		)
		for range serveSetupCals {
			run.setupSpeed.sample(slots)
		}
		setupSteal.mark()
		starts = append(starts, time.Now())
		q, d, err = startQuestd(ctx, bin, filepath.Join(base, fmt.Sprintf("rep%d", rep)), workers, client)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run.setups = append(run.setups, d)
		setupSteal.mark()
		if rep < setupReps-1 {
			if _, err := q.stop(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	watched()
	for i, d := range run.setups {
		run.setupRefs = append(run.setupRefs, reference(d, starts[i], run.setupSpeed, setupSteal))
	}

	n := serveUnit * max(1, int(math.Round(window.Seconds()*serveRate/serveUnit)))
	if maxJobs > 0 {
		n = maxJobs
	}
	jobs, err := serveSchedule(seed, n)
	if err != nil {
		_, _ = q.stop()
		return nil, fmt.Errorf("schedule: %w", err)
	}
	run.jobs = jobs
	// The pace starts from the set-up's latest calibrations and follows
	// the ones made while the schedule runs.
	pace := run.setupSpeed.recent(servePaceCals)
	spacing := func() time.Duration {
		return time.Duration(float64(time.Second) / serveRate * pace.recent(servePaceCals).factor())
	}

	var baseline healthz
	if _, err := getJSON(ctx, client, q.base+"/healthz", &baseline); err != nil {
		_, _ = q.stop()
		return nil, err
	}
	if err := resetPeakRSS(fmt.Sprint(q.cmd.Process.Pid)); err != nil {
		_, _ = q.stop()
		return nil, err
	}
	// The pace may slow while the schedule runs; twice the set-up's
	// spacing leaves room for that.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Duration(n)*spacing()+serveDrain)
	calDone := make(chan struct{})
	var cal sync.WaitGroup
	cal.Add(1)
	go func() {
		defer cal.Done()
		tick := time.NewTicker(serveCalEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				pace.add(run.speed.sample(slots))
				run.steal.mark()
			case <-calDone:
				return
			}
		}
	}()
	run.steal.mark()
	run.start = time.Now()
	watched = run.speed.watch()
	q.drive(dctx, client, jobs, run.start, spacing)
	watched()
	run.steal.mark()
	if n > 1 {
		run.interval = jobs[n-1].due / time.Duration(n-1)
	}
	close(calDone)
	cal.Wait()
	cancel()
	_, herr := getJSON(ctx, client, q.base+"/healthz", &run.health)
	rss, serr := q.stop()
	if herr != nil {
		return nil, herr
	}
	if serr != nil {
		return nil, serr
	}
	run.health.sub(baseline)
	run.rss, run.lifePeak = q.rss, rss
	return run, nil
}

// checkServeJobs checks every finished job's result, outside the timed
// region, and marks the jobs that fail.
func checkServeJobs(run *serveRun, manila string) {
	unitaries := map[string]*linalg.Matrix{}
	for _, j := range run.jobs {
		if j.err == nil && j.result == nil {
			j.err = fmt.Errorf("job %s never finished", j.id)
		}
		if j.err != nil {
			continue
		}
		u, ok := unitaries[j.inst.name]
		if !ok {
			u = sim.Unitary(j.orig)
			unitaries[j.inst.name] = u
		}
		if err := checkServeResult(j, u, manila); err != nil {
			j.err = fmt.Errorf("job %s (%s): %w", j.id, j.inst.name, err)
		}
	}
}

// serveReport builds the report of a checked run.
func serveReport(opts options, run *serveRun) (*report, error) {
	jobs, start, setups, health := run.jobs, run.start, run.setups, run.health
	rep := &report{Attempted: len(jobs), Metrics: map[string]metric{}}
	var (
		lat, scaled                 []time.Duration
		inCX, bestCX                float64
		tvds                        []float64
		withinLimit                 int
		last                        = start
		firstErrs                   []string
		submitMS, resultMS, queueMS []float64
		hitMS, missMS               []float64
		late                        float64
	)
	finished := map[string][]time.Time{}
	for _, j := range jobs {
		if j.err == nil && j.result != nil {
			finished[j.status.ArtifactKey] = append(finished[j.status.ArtifactKey], j.status.FinishedAt)
		}
	}
	rec := newRecorder()
	for i, j := range jobs {
		late = math.Max(late, ms(j.late))
		if j.err != nil {
			rep.Failed++
			if len(firstErrs) < 5 {
				firstErrs = append(firstErrs, j.err.Error())
			}
			continue
		}
		due := start.Add(j.due)
		l := j.status.FinishedAt.Sub(due)
		lat = append(lat, l)
		scaled = append(scaled, reference(l, due, run.speed, run.steal))
		if l <= serveLatencyLimit {
			withinLimit++
		}
		if j.status.FinishedAt.After(last) {
			last = j.status.FinishedAt
		}
		inCX += float64(j.result.OriginalCNOTs)
		bestCX += float64(j.result.BestCNOTs)
		tvds = append(tvds, j.result.Stats.TVD)

		submitMS = append(submitMS, ms(j.submitDur))
		resultMS = append(resultMS, ms(j.resultDur))
		queueMS = append(queueMS, ms(j.status.StartedAt.Sub(j.status.SubmittedAt)))
		runMS := ms(j.status.FinishedAt.Sub(j.status.StartedAt))
		hit := false
		for _, f := range finished[j.status.ArtifactKey] {
			if !f.After(j.status.StartedAt) {
				hit = true
			}
		}
		if hit {
			hitMS = append(hitMS, runMS)
		} else {
			missMS = append(missMS, runMS)
		}
		root := rec.add("op", i, -1, due, j.status.FinishedAt)
		rec.add("serve.submit", i, root, due.Add(j.late), due.Add(j.late+j.submitDur))
		rec.add("jobs.queue", i, root, j.status.SubmittedAt, j.status.StartedAt)
		rec.add("jobs.run", i, root, j.status.StartedAt, j.status.FinishedAt)
	}
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(opts.log, "serve-manila seed=%d: set-up %d× %v median %.3fs; jobs attempted=%d succeeded=%d failed=%d; one every %v (%.2f/s), latency limit %v, %d within it\n",
		opts.seed, len(setups), setups, medianDuration(setups).Seconds(), rep.Attempted, rep.Attempted-rep.Failed,
		rep.Failed, run.interval, float64(time.Second)/float64(run.interval), serveLatencyLimit, withinLimit)
	for _, e := range firstErrs {
		fmt.Fprintf(opts.log, "  failed: %s\n", e)
	}
	f := run.speed.factor()
	if opts.trace {
		c := health.Counters
		rep.Metrics = layerMetrics(map[string]float64{
			"serve.submit_ms":      median(submitMS) / f,
			"serve.result_ms":      median(resultMS) / f,
			"jobs.queue_wait_ms":   median(queueMS) / f,
			"jobs.run_hit_ms":      median(hitMS) / f,
			"jobs.run_miss_ms":     median(missMS) / f,
			"jobs.artifact_hits":   c.ArtifactHits,
			"jobs.artifact_misses": c.ArtifactMisses,
			"jobs.shed":            c.Shed,
			"jobs.retried":         c.Retried,
			"jobs.failed":          c.Failed,
			"load.late_ms":         late / f,
		})
		fmt.Fprintf(opts.log, "serve-manila: %d artifact hits and %d misses by job timestamps, %v and %v by /healthz\n",
			len(hitMS), len(missMS), c.ArtifactHits, c.ArtifactMisses)
		if err := rec.write(opts.traceOut); err != nil {
			return nil, err
		}
		return rep, nil
	}
	st, err := latencyStats(lat)
	if err != nil {
		return nil, fmt.Errorf("serve-manila: %w", err)
	}
	sst, err := latencyStats(scaled)
	if err != nil {
		return nil, fmt.Errorf("serve-manila: %w", err)
	}
	wall := last.Sub(start)
	fmt.Fprintf(opts.log, "serve-manila: op_tail_ms is p%.1f of %d jobs (%d beyond it); wall %.2fs; questd peak RSS %.1f MB over its life\n",
		st.tailPct, st.measured, tailBeyond, wall.Seconds(), run.lifePeak)
	fmt.Fprintf(opts.log, "serve-manila: host factor %.3f over the schedule (%.1f %% stolen), %.3f over the set-up (%.1f %%); as measured: set-up %.3fs, job p50 %.1f ms, tail %.1f ms\n",
		f, 100*run.speed.stolenShare(), run.setupSpeed.factor(), 100*run.setupSpeed.stolenShare(), medianDuration(setups).Seconds(), ms(st.p50), ms(st.tail))
	rep.Metrics["setup_s"] = metric{medianDuration(run.setupRefs).Seconds(), "s"}
	rep.Metrics["op_p50_ms"] = metric{ms(sst.p50), "ms"}
	rep.Metrics["op_tail_ms"] = metric{ms(sst.tail), "ms"}
	// On the reference host's scale by the pace that spaced the arrivals,
	// so it reads serveRate while questd keeps up.
	pace := run.interval.Seconds() * serveRate
	rep.Metrics["ops_per_s"] = metric{float64(withinLimit) * pace / wall.Seconds(), "1/s"}
	rep.Metrics["cnot_ratio"] = metric{ratio(bestCX, inCX), "ratio"}
	rep.Metrics["ensemble_tvd"] = metric{mean(tvds), "tvd"}
	if len(run.rss) == 0 {
		return nil, errors.New("serve-manila: no RSS sample of questd")
	}
	rep.Metrics["peak_rss_mb"] = metric{median(run.rss), "MB"}
	return rep, nil
}
