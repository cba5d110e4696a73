package jobs

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/qasm"
)

func TestDefaultsInstallSharedScheduler(t *testing.T) {
	o := Options{Workers: 4}
	o.defaults()
	if o.Pipeline.Scheduler == nil {
		t.Fatal("Workers>0 manager has no shared scheduler")
	}
	if got := o.Pipeline.Scheduler.Size(); got != runtime.NumCPU() {
		t.Fatalf("default pool size = %d, want NumCPU = %d", got, runtime.NumCPU())
	}

	sized := Options{Workers: 4, Pipeline: pipeline.Config{Parallelism: 3}}
	sized.defaults()
	if got := sized.Pipeline.Scheduler.Size(); got != 3 {
		t.Fatalf("Parallelism=3 pool size = %d, want 3", got)
	}

	// A caller-provided scheduler is kept, not replaced.
	own := par.NewPool(2)
	custom := Options{Workers: 4, Pipeline: pipeline.Config{Scheduler: own}}
	custom.defaults()
	if custom.Pipeline.Scheduler != own {
		t.Fatal("caller-provided scheduler was replaced")
	}

	// Workerless (inspection) managers keep a private per-run pool and
	// the proportional Parallelism split.
	inspect := Options{Workers: -1}
	inspect.defaults()
	if inspect.Pipeline.Scheduler != nil {
		t.Fatalf("Workers=-1 manager got scheduler=%v, want none", inspect.Pipeline.Scheduler)
	}
	if inspect.Pipeline.Parallelism < 1 {
		t.Fatalf("Parallelism = %d, want >= 1", inspect.Pipeline.Parallelism)
	}
}

// TestSharedSchedulerMatchesStagedResults submits jobs through the
// manager's shared scheduler and checks every payload is bit-identical
// to a direct pipeline run of the same resolved config on a private
// pool — the jobs-level version of the pipeline's shared-scheduler
// golden test.
func TestSharedSchedulerMatchesStagedResults(t *testing.T) {
	m := openManager(t, testOpts(t))
	if m.opts.Pipeline.Scheduler == nil {
		t.Fatal("manager pipeline has no shared scheduler")
	}

	src := testQASM(t)
	const jobs = 3
	ids := make([]string, jobs)
	for i := range ids {
		j, err := m.Submit(Request{QASM: src, Tenant: "t"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}

	ctx := context.Background()
	for _, id := range ids {
		done := waitState(t, m, id, Done)
		got, err := m.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}

		cfg, err := m.jobConfig(done.Params)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheduler = nil
		c, err := qasm.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := pipeline.RunCtx(ctx, c, cfg)
		if err != nil {
			t.Fatal(err)
		}

		if got.BestCNOTs != ref.BestCNOTs() || got.Blocks != len(ref.Blocks) ||
			got.Threshold != ref.Threshold || len(got.Selected) != len(ref.Selected) {
			t.Fatalf("job %s payload %+v does not match staged run (best=%d blocks=%d thr=%v M=%d)",
				id, got, ref.BestCNOTs(), len(ref.Blocks), ref.Threshold, len(ref.Selected))
		}
		for i, s := range got.Selected {
			if want := qasm.Write(ref.Selected[i].Circuit); s.QASM != want {
				t.Fatalf("job %s sample %d QASM differs from staged run", id, i)
			}
		}
	}
}
