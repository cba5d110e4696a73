package pipeline

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/algos"
	"repro/internal/circuit"
	"repro/internal/par"
)

// assertArtifactsEqual checks that every field of the SynthesisArtifact
// chain except wall-clock telemetry matches exactly: blocks, thresholds,
// candidates (circuits, distances, CNOT counts), the raw harvest,
// pairwise distances, degradations, cache stats and keys.
func assertArtifactsEqual(t *testing.T, want, got *SynthesisArtifact) {
	t.Helper()
	wp, gp := want.Partition, got.Partition
	if !reflect.DeepEqual(wp.Blocks, gp.Blocks) {
		t.Fatal("partition blocks differ")
	}
	if wp.Threshold != gp.Threshold || wp.Key != gp.Key {
		t.Fatalf("partition threshold/key differ: %g/%q vs %g/%q",
			wp.Threshold, wp.Key, gp.Threshold, gp.Key)
	}
	if !reflect.DeepEqual(want.Blocks, got.Blocks) {
		t.Fatal("synthesized blocks differ")
	}
	if !reflect.DeepEqual(want.Degradations, got.Degradations) {
		t.Fatalf("degradations differ: %v vs %v", want.Degradations, got.Degradations)
	}
	if want.Key != got.Key {
		t.Fatalf("synthesis keys differ: %q vs %q", want.Key, got.Key)
	}
	if want.CacheStats != got.CacheStats {
		t.Fatalf("cache stats differ: %+v vs %+v", want.CacheStats, got.CacheStats)
	}
}

// TestSharedSchedulerGolden runs several compilations concurrently
// against ONE shared scheduler pool — questd's and the corpus batch's
// configuration — and asserts each artifact is bit-identical to its solo
// run on a private per-run pool: the cross-circuit scheduler must never
// change outputs, only wall-clock.
func TestSharedSchedulerGolden(t *testing.T) {
	circuits := []*circuit.Circuit{
		algos.TFIM(4, 2, 0.1, 1, 1),
		algos.Heisenberg(4, 2, 0.1, 1, 1),
		algos.XY(4, 2, 0.1, 1),
	}
	base := testConfig()
	want := make([]*SynthesisArtifact, len(circuits))
	for i, c := range circuits {
		art, err := Synthesize(context.Background(), c, base)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = art
	}

	pool := par.NewPool(3)
	got := make([]*SynthesisArtifact, len(circuits))
	errs := make([]error, len(circuits))
	done := make(chan int, len(circuits))
	for i, c := range circuits {
		go func(i int, c *circuit.Circuit) {
			cfg := base
			cfg.Scheduler = pool
			got[i], errs[i] = Synthesize(context.Background(), c, cfg)
			done <- i
		}(i, c)
	}
	for range circuits {
		<-done
	}
	for i := range circuits {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertArtifactsEqual(t, want[i], got[i])
	}
}
