package jobs

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"

	"repro/internal/algos"
	"repro/internal/pipeline"
)

// Two concurrent misses of one circuit save the same key at once. Each
// save must write through its own tmp file, so both succeed and exactly
// one intact artifact remains.
func TestStoreConcurrentSavesOfOneKey(t *testing.T) {
	cfg := testPipe()
	art, err := pipeline.Synthesize(context.Background(), algos.GHZ(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := art.Save(&want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key, savers, rounds = "k", 2, 20
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make([]error, savers)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = s.save(key, art)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: save %d: %v", r, i, err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("store dir holds %v, want only the artifact", names)
	}
	got, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("stored artifact differs from the saved one")
	}
	if loaded, err := s.load(key); err != nil || loaded == nil {
		t.Fatalf("load after concurrent saves: %v, %v", loaded, err)
	}
}
