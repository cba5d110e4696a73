// Package faultinject provides deterministic, test-only fault hooks for
// the pipeline's robustness paths. Production call sites fire a named
// site at well-defined points (one optimizer start, one block-synthesis
// attempt, one noise trajectory chunk, ...); tests install hooks that
// make chosen firings fail, panic, or stall. With no hooks installed a
// firing is a single atomic load, so instrumented hot paths stay hot.
//
// Hooks are keyed by site name and sequenced by a per-site call counter,
// so an injected fault is a pure function of (site, call index) —
// deterministic under any worker count or interleaving. Sites that need
// per-item targeting (for example "fail only block 2") embed the item
// index in the site name behind an Enabled() guard:
//
//	if faultinject.Enabled() {
//		if err := faultinject.Fire(fmt.Sprintf("core.block.%d", i)); err != nil {
//			return err
//		}
//	}
//
// # Site naming
//
// Sites are named "<area>.<component>.<event>" (or "<area>.<event>" when
// the area has a single component), all lower-case, with any per-item
// index appended as a final ".<n>" segment. The production sites:
//
//	core.block.<i>        one block-synthesis attempt in the pipeline
//	synth.optimize        one search-tree node about to be optimized
//	synth.helper.run      one optimizer run on a slot lent to a helper
//	select.attempt.<a>    one annealing attempt (retry a) of a selection sample
//	opt.lbfgs             one L-BFGS outer iteration
//	jobs.enqueue          a job admission into the questd queue
//	jobs.journal.append   one job-journal record write
//	jobs.worker.pickup    a worker claiming a queued job
//	jobs.worker.run       the pipeline run of a claimed job
//	jobs.artifact.write   a content-addressed artifact store write
//	serve.submit          an HTTP job submission before admission
//
// Chaos tests assert hook cleanup with Sites(): after every deferred
// restore has run, Sites() must be empty again.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Hook decides what happens at the call-th firing of a site (call counts
// from 1): return nil to let the call proceed, or an error to inject it.
// A hook may also panic (to model a worker crash) or block (to model a
// stall); injected panics carry the hook's panic value.
type Hook func(call int) error

type site struct {
	hook  Hook
	calls atomic.Int64
}

var (
	installed atomic.Int32 // number of installed hooks; fast-path guard
	mu        sync.Mutex
	sites     map[string]*site
)

// Enabled reports whether any hook is installed. Call sites that must do
// extra work to fire (string formatting, say) gate it on Enabled.
func Enabled() bool { return installed.Load() > 0 }

// Set installs a hook at the named site, replacing any previous hook
// there, and returns a function that removes it again. Tests should
// defer the returned restore.
func Set(name string, h Hook) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = map[string]*site{}
	}
	if _, exists := sites[name]; !exists {
		installed.Add(1)
	}
	sites[name] = &site{hook: h}
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if _, exists := sites[name]; exists {
			delete(sites, name)
			installed.Add(-1)
		}
	}
}

// Fire triggers the named site: with no hook installed it returns nil
// (after a single atomic load); otherwise it invokes the hook with the
// site's next call number and returns whatever the hook returns (or
// propagates the hook's panic).
func Fire(name string) error {
	if installed.Load() == 0 {
		return nil
	}
	mu.Lock()
	s := sites[name]
	mu.Unlock()
	if s == nil {
		return nil
	}
	return s.hook(int(s.calls.Add(1)))
}

// FailOnCall returns a hook that injects err on exactly the n-th firing
// and lets every other call proceed.
func FailOnCall(n int, err error) Hook {
	return func(call int) error {
		if call == n {
			return err
		}
		return nil
	}
}

// FailAlways returns a hook that injects err on every firing.
func FailAlways(err error) Hook {
	return func(int) error { return err }
}

// PanicOnCall returns a hook that panics with value v on exactly the
// n-th firing.
func PanicOnCall(n int, v any) Hook {
	return func(call int) error {
		if call == n {
			panic(v)
		}
		return nil
	}
}

// Stall returns a hook that blocks every firing for d before letting the
// call proceed — a stalled worker, a slow disk, a wedged lock. Compose
// with the other helpers for stall-then-fail shapes:
//
//	faultinject.Set("jobs.worker.run", func(call int) error {
//		if err := faultinject.Stall(50 * time.Millisecond)(call); err != nil {
//			return err
//		}
//		return faultinject.FailOnCall(1, someErr)(call)
//	})
func Stall(d time.Duration) Hook {
	return func(int) error {
		time.Sleep(d)
		return nil
	}
}

// Sites returns the names of all currently installed hooks in sorted
// order. Chaos tests use it to assert cleanup: after their deferred
// restores have run, Sites() must be empty, so a leaked hook cannot
// silently poison later tests in the same process.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Error builds a labeled injection error, so test assertions can
// recognize their own faults in wrapped error chains.
func Error(site string) error {
	return fmt.Errorf("faultinject: injected failure at %s", site)
}
