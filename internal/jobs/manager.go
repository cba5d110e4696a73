package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/circuit"
	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/qasm"
)

// Options configure a Manager. Zero values select the documented
// defaults.
type Options struct {
	// Dir is the data directory (journal + artifact store). Required.
	Dir string
	// Workers is the synthesis worker pool size (default 4; -1 runs no
	// workers — recovery-inspection and test tooling).
	Workers int
	// QueueCap bounds the total queued jobs (default 256); admissions
	// beyond it are shed with ErrQueueFull.
	QueueCap int
	// TenantCap bounds one tenant's share of the queue (default
	// QueueCap): a single tenant's storm sheds with ErrTenantFull
	// before it can fill the shared queue.
	TenantCap int
	// MaxRetries is how many extra attempts a job gets after a crash or
	// transient failure (default 3; negative disables retries).
	MaxRetries int
	// BackoffBase/BackoffMax shape the retry backoff:
	// base·2^(attempt-1) capped at max, plus deterministic jitter
	// (defaults 250ms / 30s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DefaultTimeout is the per-job deadline when a request does not
	// set one (default 10m).
	DefaultTimeout time.Duration
	// KeepTerminal is how many terminal jobs stay queryable (default
	// 512); older ones are pruned at compaction.
	KeepTerminal int
	// Pipeline is the base pipeline Config; per-job Params override its
	// Epsilon/MaxSamples/BlockSize/Seed. Its SynthCache (if any) is
	// shared across every tenant's jobs. When its Scheduler is nil and
	// Workers > 0, the manager installs one shared par.Pool (sized by
	// Pipeline.Parallelism, 0 = NumCPU), so all workers' jobs draw
	// per-block synthesis slots from one machine-wide budget.
	Pipeline pipeline.Config
	// Clock is the time source (default time.Now; tests inject).
	Clock func() time.Time
}

func (o *Options) defaults() {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.TenantCap <= 0 || o.TenantCap > o.QueueCap {
		o.TenantCap = o.QueueCap
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 3
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 10 * time.Minute
	}
	if o.KeepTerminal <= 0 {
		o.KeepTerminal = 512
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Pipeline.Scheduler == nil && o.Workers > 0 {
		// One machine-wide synthesis slot budget shared by every worker's
		// pipeline run, replacing the old static NumCPU/Workers split: a
		// lone job can saturate the machine, and W busy jobs draw slots
		// FIFO from the same pool instead of oversubscribing it W-fold.
		// Pool size follows Pipeline.Parallelism (0 = NumCPU). The
		// scheduler never enters artifact keys, so results and keys are
		// unchanged.
		o.Pipeline.Scheduler = par.NewPool(o.Pipeline.Parallelism)
	}
	if o.Pipeline.Parallelism == 0 {
		// No-scheduler managers (Workers < 0 inspection tooling, or an
		// explicit Scheduler with Parallelism unset) keep the old
		// proportional split so W jobs don't oversubscribe the machine
		// W-fold on the staged path.
		per := runtime.NumCPU()
		if o.Workers > 0 {
			per = per / o.Workers
		}
		if per < 1 {
			per = 1
		}
		o.Pipeline.Parallelism = per
	}
}

// Counters accumulate over a Manager's lifetime (they reset at Open;
// the journal is the durable record).
type Counters struct {
	Submitted      uint64 `json:"submitted"`
	Done           uint64 `json:"done"`
	Failed         uint64 `json:"failed"`
	Cancelled      uint64 `json:"cancelled"`
	Retried        uint64 `json:"retried"`
	Shed           uint64 `json:"shed"`
	Recovered      uint64 `json:"recovered"`
	ArtifactHits   uint64 `json:"artifact_hits"`
	ArtifactMisses uint64 `json:"artifact_misses"`
}

// Stats is a point-in-time operational snapshot (the /healthz payload).
type Stats struct {
	QueueDepth   int      `json:"queue_depth"`
	Running      int      `json:"running"`
	WorkersLive  int      `json:"workers_live"`
	Draining     bool     `json:"draining"`
	JournalOK    bool     `json:"journal_ok"`
	JournalError string   `json:"journal_error,omitempty"`
	Counters     Counters `json:"counters"`
}

// Manager owns the job table, the queue, the worker pool, and the
// journal. All methods are safe for concurrent use.
type Manager struct {
	opts  Options
	clock func() time.Time

	journal *jobJournal
	store   *store
	q       *queue

	// txMu serializes every (journal append, state update) pair and the
	// compaction snapshot, so the journal can never miss a transition
	// the in-memory table has. Lock order: txMu before mu.
	txMu sync.Mutex
	mu   sync.Mutex

	jobs     map[string]*Job
	results  map[string]*ResultPayload
	running  map[string]context.CancelFunc
	seq      uint64
	nextID   uint64
	counters Counters
	draining bool

	runCtx  context.Context // cancelled only at forced stop
	stopRun context.CancelFunc
	popCtx  context.Context
	stopPop context.CancelFunc

	wg          sync.WaitGroup
	workersLive atomic.Int32
	resultMu    sync.Mutex // serializes post-restart result recomputes
}

// Open loads (or initializes) the data directory, replays the journal —
// re-enqueueing queued jobs, restarting crashed ones with a consumed
// attempt, retaining terminal ones — and starts the worker pool.
func Open(opts Options) (*Manager, error) {
	opts.defaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("jobs: Options.Dir is required")
	}
	st, err := openStore(opts.Dir + "/artifacts")
	if err != nil {
		return nil, err
	}
	jn, recs, err := openJournal(opts.Dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		opts:    opts,
		clock:   opts.Clock,
		journal: jn,
		store:   st,
		q:       newQueue(opts.QueueCap, opts.TenantCap, opts.Clock),
		jobs:    map[string]*Job{},
		results: map[string]*ResultPayload{},
		running: map[string]context.CancelFunc{},
	}
	m.runCtx, m.stopRun = context.WithCancel(context.Background())
	m.popCtx, m.stopPop = context.WithCancel(context.Background())
	if err := m.recover(recs); err != nil {
		jn.close()
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		m.workersLive.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover rebuilds the job table from replayed records and re-enqueues
// the non-terminal jobs. Runs before any worker starts.
func (m *Manager) recover(recs []record) error {
	for _, rec := range recs {
		switch rec.Op {
		case "submit", "state":
			if rec.Job == nil || rec.Job.ID == "" {
				continue
			}
			j := *rec.Job
			if rec.Op == "submit" {
				j.State = Queued
			}
			m.seq++
			j.seq = m.seq
			m.jobs[j.ID] = &j
			if n, ok := parseID(j.ID); ok && n >= m.nextID {
				m.nextID = n + 1
			}
		case "start":
			if j := m.jobs[rec.ID]; j != nil {
				j.State = Running
				j.Attempts = rec.Attempt
				j.StartedAt = time.Unix(0, rec.T)
			}
		case "done":
			if j := m.jobs[rec.ID]; j != nil {
				j.State = Done
				j.Error = ""
				j.ResultSHA = rec.SHA
				if rec.Artifact != "" {
					j.ArtifactKey = rec.Artifact
					j.ArtifactEpsilon = rec.AEps
				}
				j.FinishedAt = time.Unix(0, rec.T)
			}
		case "fail":
			if j := m.jobs[rec.ID]; j != nil {
				if rec.Attempt > 0 {
					j.Attempts = rec.Attempt
				}
				j.Error = rec.Reason
				if rec.Final {
					j.State = Failed
					j.FinishedAt = time.Unix(0, rec.T)
				} else {
					j.State = Queued
				}
			}
		case "cancel":
			if j := m.jobs[rec.ID]; j != nil {
				j.State = Cancelled
				j.FinishedAt = time.Unix(0, rec.T)
			}
		}
	}

	// Re-enqueue survivors in submission order. A job journaled as
	// Running was lost to a crash: it consumed its attempt, comes back
	// with backoff, and fails terminally once the retry budget is gone —
	// a crash-looping job cannot wedge the service forever.
	var live []*Job
	for _, j := range m.jobs {
		if !j.State.Terminal() {
			live = append(live, j)
		}
	}
	sort.Slice(live, func(i, k int) bool { return live[i].seq < live[k].seq })
	now := m.clock()
	for _, j := range live {
		if j.State == Running {
			crashReason := fmt.Sprintf("process crashed during attempt %d (recovered)", j.Attempts)
			if j.Attempts >= m.maxAttempts() {
				if err := m.journal.append(record{
					Op: "fail", ID: j.ID, Attempt: j.Attempts,
					Reason: crashReason + ": retry budget exhausted", Final: true,
					T: now.UnixNano(),
				}); err != nil {
					return err
				}
				j.State = Failed
				j.Error = crashReason + ": retry budget exhausted"
				j.FinishedAt = now
				continue
			}
			if err := m.journal.append(record{
				Op: "fail", ID: j.ID, Attempt: j.Attempts,
				Reason: crashReason, T: now.UnixNano(),
			}); err != nil {
				return err
			}
			j.State = Queued
			j.Error = crashReason
			j.notBefore = now.Add(backoffDelay(m.opts.BackoffBase, m.opts.BackoffMax, j.ID, j.Attempts))
		}
		m.counters.Recovered++
		m.q.push(j, false)
	}
	m.pruneAndCompact()
	return nil
}

func parseID(id string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(id, "j-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// maxAttempts is the total start budget: the first attempt plus the
// retry allowance.
func (m *Manager) maxAttempts() int { return 1 + m.opts.MaxRetries }

// resolveParams fills a request's zero-valued Params from the base
// pipeline Config and the manager defaults, so the Job records the
// concrete settings it will run under.
func (m *Manager) resolveParams(p Params) Params {
	base := m.opts.Pipeline.Resolved()
	if p.Epsilon <= 0 {
		p.Epsilon = base.Epsilon
	}
	if p.MaxSamples <= 0 {
		p.MaxSamples = base.MaxSamples
	}
	if p.BlockSize <= 0 {
		p.BlockSize = base.BlockSize
	}
	if p.Seed == 0 {
		p.Seed = base.Seed
	}
	if p.Timeout <= 0 {
		p.Timeout = m.opts.DefaultTimeout
	}
	return p
}

// jobConfig builds the pipeline Config for a job: the base Config with
// the job's Params substituted. The per-job deadline is enforced via
// the worker's context, not Config.Timeout. An empty Params.Objective
// inherits the base Config's objective; a non-empty spec is resolved
// through the backend registry (Submit validates it at admission, so an
// error here means a journal written by a different registry — the job
// fails rather than silently changing objective).
func (m *Manager) jobConfig(p Params) (pipeline.Config, error) {
	cfg := m.opts.Pipeline
	cfg.Epsilon = p.Epsilon
	cfg.MaxSamples = p.MaxSamples
	cfg.BlockSize = p.BlockSize
	cfg.Seed = p.Seed
	cfg.Timeout = 0
	if p.Objective != "" {
		obj, err := backend.Objective(p.Objective)
		if err != nil {
			return pipeline.Config{}, err
		}
		cfg.Objective = obj
	}
	return cfg, nil
}

// Submit validates, journals, and enqueues one job. The returned Job is
// a snapshot. Shedding (ErrQueueFull/ErrTenantFull) happens before
// anything is journaled: a shed job never existed.
func (m *Manager) Submit(req Request) (Job, error) {
	if err := faultinject.Fire("jobs.enqueue"); err != nil {
		return Job{}, fmt.Errorf("jobs: admit: %w", err)
	}
	c, err := qasm.Parse(req.QASM)
	if err != nil {
		return Job{}, fmt.Errorf("%w: parse qasm: %w", ErrInvalid, err)
	}
	canonical := qasm.Write(c)
	p := m.resolveParams(req.Params)
	cfg, err := m.jobConfig(p)
	if err != nil {
		return Job{}, fmt.Errorf("%w: %w", ErrInvalid, err)
	}

	// The artifact key deliberately ignores the objective: switching
	// objectives reuses the synthesis harvest and pays only a Reselect.
	akey := artifactKey(canonical, cfg)
	aeps := cfg.Resolved().Epsilon
	if req.From != "" {
		m.mu.Lock()
		parent, ok := m.jobs[req.From]
		var pj Job
		if ok {
			pj = *parent
		}
		m.mu.Unlock()
		switch {
		case !ok:
			return Job{}, fmt.Errorf("%w: from job %q: %w", ErrInvalid, req.From, ErrUnknownJob)
		case pj.State != Done:
			return Job{}, fmt.Errorf("%w: from job %q is %s, need done", ErrInvalid, req.From, pj.State)
		case pj.QASM != canonical:
			return Job{}, fmt.Errorf("%w: from job %q was submitted with a different circuit", ErrInvalid, req.From)
		case pj.Params.BlockSize != p.BlockSize:
			return Job{}, fmt.Errorf("%w: from job %q used block size %d, request resolves to %d",
				ErrInvalid, req.From, pj.Params.BlockSize, p.BlockSize)
		}
		akey, aeps = pj.ArtifactKey, pj.ArtifactEpsilon
	}

	m.txMu.Lock()
	defer m.txMu.Unlock()
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Job{}, ErrDraining
	}
	m.seq++
	m.nextID++
	j := &Job{
		ID:              fmt.Sprintf("j-%08d", m.nextID),
		Tenant:          req.Tenant,
		Priority:        req.Priority,
		QASM:            canonical,
		From:            req.From,
		Params:          p,
		State:           Queued,
		ArtifactKey:     akey,
		ArtifactEpsilon: aeps,
		SubmittedAt:     m.clock(),
		seq:             m.seq,
	}
	m.mu.Unlock()

	if err := m.q.reserve(j.Tenant); err != nil {
		m.mu.Lock()
		m.counters.Shed++
		m.mu.Unlock()
		return Job{}, err
	}
	if err := m.journal.append(record{Op: "submit", Job: j, T: j.SubmittedAt.UnixNano()}); err != nil {
		m.q.release(j.Tenant)
		return Job{}, err
	}
	m.mu.Lock()
	m.jobs[j.ID] = j
	m.counters.Submitted++
	snap := *j
	m.mu.Unlock()
	m.q.push(j, true)
	return snap, nil
}

// Get returns a snapshot of a job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Cancel cancels a queued job immediately, or requests cancellation of
// a running one (its pipeline context is cancelled; the terminal
// transition lands asynchronously).
func (m *Manager) Cancel(id string) error {
	m.txMu.Lock()
	defer m.txMu.Unlock()
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrUnknownJob
	}
	if j.State.Terminal() {
		m.mu.Unlock()
		return fmt.Errorf("%w (%s)", ErrTerminal, j.State)
	}
	j.cancelRequested = true
	if j.State == Running {
		if cancel := m.running[id]; cancel != nil {
			cancel()
		}
		m.mu.Unlock()
		return nil
	}
	removed := m.q.remove(id)
	m.mu.Unlock()
	if !removed {
		// Popped but not yet started: the worker sees cancelRequested.
		return nil
	}
	return m.transitionLocked(j, record{Op: "cancel", ID: id}, func() {
		j.State = Cancelled
		j.FinishedAt = m.clock()
		m.counters.Cancelled++
	})
}

// transitionLocked journals rec then applies the state mutation under
// m.mu. Caller holds txMu. A journal failure latches unhealthy but the
// in-memory transition still applies — the process keeps serving, the
// durability loss is visible in Stats.
func (m *Manager) transitionLocked(j *Job, rec record, apply func()) error {
	rec.T = m.clock().UnixNano()
	err := m.journal.append(rec)
	m.mu.Lock()
	apply()
	m.mu.Unlock()
	return err
}

// worker is one pool goroutine: pop, claim, run, repeat until the
// queue closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	defer m.workersLive.Add(-1)
	for {
		j, err := m.q.pop(m.popCtx)
		if err != nil {
			return
		}
		if err := faultinject.Fire("jobs.worker.pickup"); err != nil {
			m.mu.Lock()
			j.Attempts++
			m.mu.Unlock()
			m.retryOrFail(j, fmt.Errorf("jobs: pickup: %w", err))
			continue
		}
		m.runJob(j)
	}
}

// runJob executes one attempt of a claimed job and classifies the
// outcome: done, cancelled, drained (re-queued for the next process),
// deadline-failed, or retried with backoff.
func (m *Manager) runJob(j *Job) {
	m.txMu.Lock()
	m.mu.Lock()
	if j.cancelRequested {
		m.mu.Unlock()
		m.txMu.Unlock()
		m.finishCancel(j)
		return
	}
	j.Attempts++
	attempt := j.Attempts
	j.State = Running
	j.StartedAt = m.clock()
	jctx, cancel := context.WithTimeout(m.runCtx, j.Params.Timeout)
	m.running[j.ID] = cancel
	m.mu.Unlock()
	// Start is journaled after the state flip but under the same txMu
	// tick; a crash between the two is indistinguishable from a crash
	// just before pickup (the job replays as queued and re-runs).
	m.journal.append(record{Op: "start", ID: j.ID, Attempt: attempt, T: j.StartedAt.UnixNano()})
	m.txMu.Unlock()

	payload, err := m.execute(jctx, j)
	cancel()
	m.mu.Lock()
	delete(m.running, j.ID)
	cancelReq := j.cancelRequested
	draining := m.draining
	m.mu.Unlock()

	switch {
	case err == nil:
		m.txMu.Lock()
		m.transitionLocked(j, record{
			Op: "done", ID: j.ID,
			Artifact: j.ArtifactKey, AEps: j.ArtifactEpsilon, SHA: payload.SHA,
		}, func() {
			j.State = Done
			j.Error = ""
			j.ResultSHA = payload.SHA
			j.FinishedAt = m.clock()
			m.results[j.ID] = payload
			m.counters.Done++
		})
		m.txMu.Unlock()
		m.pruneAndCompact()
	case cancelReq && budget.Terminated(err):
		m.finishCancel(j)
	case draining && budget.Terminated(err):
		// The drain deadline cut this job loose: journal a retryable
		// failure so the next Open re-runs it.
		m.txMu.Lock()
		m.transitionLocked(j, record{
			Op: "fail", ID: j.ID, Attempt: j.Attempts,
			Reason: "drained: " + err.Error(),
		}, func() {
			j.State = Queued
			j.Error = "drained: " + err.Error()
		})
		m.txMu.Unlock()
	case errors.Is(err, budget.ErrDeadline):
		// The job's own deadline: terminal — a rerun would hit the same
		// wall.
		m.failFinal(j, fmt.Sprintf("job deadline (%v) exceeded: %v", j.Params.Timeout, err))
	default:
		m.retryOrFail(j, err)
	}
}

// execute runs the pipeline for one attempt: obtain the synthesis
// artifact (content-store hit or fresh synthesis), reselect under the
// job's own settings, render the deterministic payload. Panics anywhere
// below become retryable errors — one poisoned job must not take a
// worker down.
func (m *Manager) execute(ctx context.Context, j *Job) (payload *ResultPayload, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: panic during job %s: %v", j.ID, r)
		}
	}()
	if err := faultinject.Fire("jobs.worker.run"); err != nil {
		return nil, err
	}
	c, err := qasm.Parse(j.QASM)
	if err != nil {
		return nil, fmt.Errorf("jobs: reparse canonical qasm: %w", err)
	}
	cfg, err := m.jobConfig(j.Params)
	if err != nil {
		return nil, fmt.Errorf("jobs: resolve objective: %w", err)
	}
	art, err := m.obtainArtifact(ctx, j, c, cfg)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.Reselect(ctx, art, cfg)
	if err != nil {
		return nil, err
	}
	return renderResult(ctx, j.ID, c, res, j.Params)
}

// obtainArtifact loads the job's synthesis artifact from the content
// store, or synthesizes and stores it. The synthesis runs at the
// artifact's ε (the job's own, except for From-jobs, which rebuild
// their parent's pool), so a rebuilt artifact reselects identically.
func (m *Manager) obtainArtifact(ctx context.Context, j *Job, c *circuit.Circuit, cfg pipeline.Config) (*pipeline.SynthesisArtifact, error) {
	art, err := m.store.load(j.ArtifactKey)
	if err != nil {
		return nil, err
	}
	if art != nil {
		m.mu.Lock()
		m.counters.ArtifactHits++
		m.mu.Unlock()
		return art, nil
	}
	m.mu.Lock()
	m.counters.ArtifactMisses++
	m.mu.Unlock()
	scfg := cfg
	scfg.Epsilon = j.ArtifactEpsilon
	art, err = pipeline.Synthesize(ctx, c, scfg)
	if err != nil {
		return nil, err
	}
	if err := m.store.save(j.ArtifactKey, art); err != nil {
		return nil, err
	}
	return art, nil
}

// finishCancel lands the terminal cancel transition.
func (m *Manager) finishCancel(j *Job) {
	m.txMu.Lock()
	defer m.txMu.Unlock()
	m.transitionLocked(j, record{Op: "cancel", ID: j.ID}, func() {
		j.State = Cancelled
		j.FinishedAt = m.clock()
		m.counters.Cancelled++
	})
}

// failFinal lands a terminal failure.
func (m *Manager) failFinal(j *Job, reason string) {
	m.txMu.Lock()
	m.transitionLocked(j, record{
		Op: "fail", ID: j.ID, Attempt: j.Attempts, Reason: reason, Final: true,
	}, func() {
		j.State = Failed
		j.Error = reason
		j.FinishedAt = m.clock()
		m.counters.Failed++
	})
	m.txMu.Unlock()
	m.pruneAndCompact()
}

// retryOrFail re-queues a transiently failed job with exponential
// backoff + jitter, or fails it terminally once the attempt budget is
// spent.
func (m *Manager) retryOrFail(j *Job, err error) {
	m.mu.Lock()
	attempt := j.Attempts
	m.mu.Unlock()
	if attempt >= m.maxAttempts() {
		m.failFinal(j, fmt.Sprintf("attempt %d/%d failed: %v", attempt, m.maxAttempts(), err))
		return
	}
	m.txMu.Lock()
	m.transitionLocked(j, record{
		Op: "fail", ID: j.ID, Attempt: attempt, Reason: err.Error(),
	}, func() {
		j.State = Queued
		j.Error = err.Error()
		j.notBefore = m.clock().Add(backoffDelay(m.opts.BackoffBase, m.opts.BackoffMax, j.ID, attempt))
		m.counters.Retried++
	})
	m.txMu.Unlock()
	m.q.push(j, false)
}

// Result returns a completed job's payload, recomputing it from the
// artifact store when this process has not rendered it yet (the
// post-restart path) and verifying the recomputation against the SHA
// journaled at completion.
func (m *Manager) Result(ctx context.Context, id string) (*ResultPayload, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrUnknownJob
	}
	if j.State != Done {
		st := j.State
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (job is %s)", ErrNotDone, st)
	}
	if p := m.results[id]; p != nil {
		m.mu.Unlock()
		return p, nil
	}
	snap := *j
	m.mu.Unlock()

	// Recompute path: serialize (recomputes are rare — only the first
	// fetch of each pre-restart job pays one).
	m.resultMu.Lock()
	defer m.resultMu.Unlock()
	m.mu.Lock()
	if p := m.results[id]; p != nil {
		m.mu.Unlock()
		return p, nil
	}
	m.mu.Unlock()

	c, err := qasm.Parse(snap.QASM)
	if err != nil {
		return nil, fmt.Errorf("jobs: reparse canonical qasm: %w", err)
	}
	cfg, err := m.jobConfig(snap.Params)
	if err != nil {
		return nil, fmt.Errorf("jobs: resolve objective: %w", err)
	}
	art, err := m.obtainArtifact(ctx, &snap, c, cfg)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.Reselect(ctx, art, cfg)
	if err != nil {
		return nil, err
	}
	payload, err := renderResult(ctx, id, c, res, snap.Params)
	if err != nil {
		return nil, err
	}
	if snap.ResultSHA != "" && payload.SHA != snap.ResultSHA {
		return nil, fmt.Errorf("jobs: recovered result for %s does not match its journaled content hash (%s != %s)",
			id, payload.SHA, snap.ResultSHA)
	}
	m.mu.Lock()
	m.results[id] = payload
	m.mu.Unlock()
	return payload, nil
}

// pruneAndCompact drops the oldest terminal jobs beyond KeepTerminal
// and compacts the journal once it has outgrown the live set.
func (m *Manager) pruneAndCompact() {
	m.txMu.Lock()
	defer m.txMu.Unlock()
	m.mu.Lock()
	var terminal []*Job
	for _, j := range m.jobs {
		if j.State.Terminal() {
			terminal = append(terminal, j)
		}
	}
	if extra := len(terminal) - m.opts.KeepTerminal; extra > 0 {
		sort.Slice(terminal, func(i, k int) bool { return terminal[i].seq < terminal[k].seq })
		for _, j := range terminal[:extra] {
			delete(m.jobs, j.ID)
			delete(m.results, j.ID)
		}
	}
	live := len(m.jobs)
	if !m.journal.needsCompaction(live) {
		m.mu.Unlock()
		return
	}
	all := make([]*Job, 0, live)
	for _, j := range m.jobs {
		all = append(all, j)
	}
	sort.Slice(all, func(i, k int) bool { return all[i].seq < all[k].seq })
	recs := make([]record, 0, len(all))
	for _, j := range all {
		snap := *j
		recs = append(recs, record{Op: "state", Job: &snap, T: m.clock().UnixNano()})
	}
	m.mu.Unlock()
	m.journal.compact(recs)
}

// Stats snapshots the operational state.
func (m *Manager) Stats() Stats {
	jerr := m.journal.health()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		QueueDepth:  m.q.depth(),
		Running:     len(m.running),
		WorkersLive: int(m.workersLive.Load()),
		Draining:    m.draining,
		JournalOK:   jerr == nil,
		Counters:    m.counters,
	}
	if jerr != nil {
		s.JournalError = jerr.Error()
	}
	return s
}

// Health returns the journal's first persistence failure, nil while
// every acknowledged transition is durable.
func (m *Manager) Health() error { return m.journal.health() }

// Draining reports whether shutdown has begun (readyz turns 503).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Close drains and shuts down: admission stops, workers finish their
// in-flight jobs until ctx expires, any still-running jobs are then cut
// loose (journaled as retryable — the next Open re-runs them), queued
// jobs stay journaled, and the journal is fsynced closed.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.q.close()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.mu.Lock()
		for _, cancel := range m.running {
			cancel()
		}
		m.mu.Unlock()
		<-done
	}
	m.stopRun()
	m.stopPop()
	return m.journal.close()
}
