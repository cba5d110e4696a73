package jobs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/pipeline"
	"repro/internal/qasm"
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

// Open deletes every stored artifact no recovered job references: a
// file under a foreign key and the artifact of a job pruned by
// KeepTerminal go, the surviving job's artifact stays (its result is
// recomputed from it), and a tmp file is left alone. Resubmitting the
// pruned job's circuit then re-synthesizes it.
func TestOpenSweepsUnreferencedArtifacts(t *testing.T) {
	opts := testOpts(t)
	opts.KeepTerminal = 1
	m1, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m1.Submit(Request{QASM: testQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, first.ID, Done)
	second, err := m1.Submit(Request{QASM: qasm.Write(algos.GHZ(4))})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, second.ID, Done)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if first.ArtifactKey == second.ArtifactKey {
		t.Fatal("both jobs address one artifact")
	}
	dir := filepath.Join(opts.Dir, "artifacts")
	stray := filepath.Join(dir, "art-0123456789abcdef0123456789abcdef.json")
	tmp := filepath.Join(dir, "art-"+second.ArtifactKey+".json.1.tmp")
	for _, name := range []string{stray, tmp} {
		if err := os.WriteFile(name, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "art-"+first.ArtifactKey+".json")); err != nil {
		t.Fatalf("the first job's artifact is gone before the restart: %v", err)
	}

	m2 := openManager(t, opts)
	if _, ok := m2.Get(first.ID); ok {
		t.Fatalf("job %s survived KeepTerminal 1", first.ID)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{"art-" + second.ArtifactKey + ".json", filepath.Base(tmp)}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("artifact dir after restart holds %v, want %v", names, want)
	}
	if _, err := m2.Result(ctx, second.ID); err != nil {
		t.Fatalf("surviving job's result: %v", err)
	}
	before := m2.Stats().Counters
	again, err := m2.Submit(Request{QASM: testQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m2, again.ID, Done)
	if c := m2.Stats().Counters; c.ArtifactMisses != before.ArtifactMisses+1 || c.ArtifactHits != before.ArtifactHits {
		t.Errorf("resubmitted pruned circuit: artifact misses/hits %d/%d → %d/%d, want one more miss",
			before.ArtifactMisses, before.ArtifactHits, c.ArtifactMisses, c.ArtifactHits)
	}
}
