package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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

// parentGHZ3SHA is the result SHA of the first job (GHZ(3) under
// testOpts) as sealed when artifacts were stored in the version-2
// encoding; testdata/artifact_v2_ghz3.json is that job's artifact.
const parentGHZ3SHA = "15417475e1c7512c675799f3fa6df8db699be8d53e790563e6e823be723da7a7"

// An artifact in the retired version-2 encoding under a job's key is a
// miss: the job re-synthesizes, overwrites the file with one that loads,
// and seals the same result as a job over a clean store.
func TestForeignVersionArtifactIsAMiss(t *testing.T) {
	clean := openManager(t, testOpts(t))
	cj, err := clean.Submit(Request{QASM: testQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, clean, cj.ID, Done)
	if want.ResultSHA != parentGHZ3SHA {
		t.Fatalf("clean-store SHA %s, want the version-2-era %s", want.ResultSHA, parentGHZ3SHA)
	}

	v2, err := os.ReadFile(filepath.Join("testdata", "artifact_v2_ghz3.json"))
	if err != nil {
		t.Fatal(err)
	}
	m := openManager(t, testOpts(t))
	cfg, err := m.jobConfig(m.resolveParams(Params{}))
	if err != nil {
		t.Fatal(err)
	}
	key := artifactKey(testQASM(t), cfg)
	if err := os.WriteFile(m.store.path(key), v2, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(Request{QASM: testQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	if j.ArtifactKey != key {
		t.Fatalf("job keyed %s, the version-2 file sits under %s", j.ArtifactKey, key)
	}
	got := waitState(t, m, j.ID, Done)
	if c := m.Stats().Counters; c.ArtifactMisses != 1 || c.ArtifactHits != 0 {
		t.Errorf("artifact misses/hits = %d/%d, want 1/0", c.ArtifactMisses, c.ArtifactHits)
	}
	if got.ResultSHA != want.ResultSHA {
		t.Errorf("result SHA %s over a version-2 store, %s over a clean one", got.ResultSHA, want.ResultSHA)
	}
	if art, err := m.store.load(key); err != nil || art == nil {
		t.Errorf("the miss did not overwrite the version-2 file with a loadable one: %v, %v", art, err)
	}
}
