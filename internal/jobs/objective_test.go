package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/journal"
)

// rewriteJournalHeader rewrites the journal's header line to claim the
// given format version, keeping the body untouched — it fabricates a
// journal written by an older questd.
func rewriteJournalHeader(t *testing.T, dir string, version int) {
	t.Helper()
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		t.Fatalf("journal %s has no header line", path)
	}
	head, err := json.Marshal(journalHeader{V: version})
	if err != nil {
		t.Fatal(err)
	}
	out := append(journal.Line(head), data[i+1:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalV1ReplaysWithCNOTObjective: a journal written before the
// objective field existed (format v1, no objective on any Params) must
// replay in place, and its jobs' results must recompute byte-identically
// — the empty objective means "inherit the base config", which defaults
// to cnot, exactly what v1 ran. The manager itself enforces the
// byte-identity: a recomputed result is verified against the SHA
// journaled at completion.
func TestJournalV1ReplaysWithCNOTObjective(t *testing.T) {
	opts := testOpts(t)
	m := openManager(t, opts)
	j, err := m.Submit(Request{QASM: testQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	if j.Params.Objective != "" {
		t.Fatalf("objective-less submission resolved Objective to %q, want empty (journal compat)", j.Params.Objective)
	}
	done := waitState(t, m, j.ID, Done)
	ctx := context.Background()
	want, err := m.Result(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Downgrade the header: the body is already a valid v1 body because
	// Params.Objective is omitempty and was never set.
	rewriteJournalHeader(t, opts.Dir, journalVersionMin)

	m2 := openManager(t, opts)
	rj, ok := m2.Get(j.ID)
	if !ok {
		t.Fatalf("job %s lost across v1 replay", j.ID)
	}
	if rj.State != Done || rj.ResultSHA != done.ResultSHA {
		t.Fatalf("replayed job = %+v, want Done with SHA %s", rj, done.ResultSHA)
	}
	got, err := m2.Result(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.SHA != want.SHA {
		t.Fatalf("recomputed SHA %s != pre-restart %s", got.SHA, want.SHA)
	}
}

// TestJournalFutureVersionMovedAside: an unknown (newer) header version
// is still foreign — moved aside, fresh journal started.
func TestJournalFutureVersionMovedAside(t *testing.T) {
	opts := testOpts(t)
	m := openManager(t, opts)
	j, err := m.Submit(Request{QASM: testQASM(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, Done)
	ctx := context.Background()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	rewriteJournalHeader(t, opts.Dir, journalVersion+1)

	m2 := openManager(t, opts)
	if _, ok := m2.Get(j.ID); ok {
		t.Fatal("job replayed from a future-version journal")
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, journalName+".old")); err != nil {
		t.Fatalf("foreign journal not preserved as .old: %v", err)
	}
}

// TestObjectiveThreadsThroughJobs: an objective on a submission must
// survive the journal, reuse the objective-independent synthesis
// artifact, and reproduce deterministically.
func TestObjectiveThreadsThroughJobs(t *testing.T) {
	m := openManager(t, testOpts(t))
	src := testQASM(t)
	ctx := context.Background()

	base, err := m.Submit(Request{QASM: src})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, base.ID, Done)

	fid, err := m.Submit(Request{QASM: src, Params: Params{Objective: "fidelity:manila"}})
	if err != nil {
		t.Fatal(err)
	}
	if fid.Params.Objective != "fidelity:manila" {
		t.Fatalf("objective not recorded: %+v", fid.Params)
	}
	// The artifact key ignores the objective: the fidelity job reuses the
	// cnot job's synthesis harvest.
	if fid.ArtifactKey != base.ArtifactKey {
		t.Fatalf("artifact keys differ across objectives: %s vs %s", fid.ArtifactKey, base.ArtifactKey)
	}
	fidDone := waitState(t, m, fid.ID, Done)
	pf, err := m.Result(ctx, fid.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pf.SHA != fidDone.ResultSHA || len(pf.Selected) == 0 {
		t.Fatalf("fidelity payload = %+v", pf)
	}
	if hits := m.Stats().Counters.ArtifactHits; hits == 0 {
		t.Error("fidelity job missed the shared synthesis artifact")
	}

	// Determinism: a resubmission with the same objective reproduces the
	// same selection (the content hash differs only because it covers the
	// job ID).
	again, err := m.Submit(Request{QASM: src, Params: Params{Objective: "fidelity:manila"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, again.ID, Done)
	pa, err := m.Result(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa.Selected, pf.Selected) {
		t.Fatal("same objective, same circuit, different selection")
	}
}

// TestSubmitRejectsBadObjective: a malformed objective spec is shed at
// admission with ErrInvalid — it never reaches the journal or a worker.
func TestSubmitRejectsBadObjective(t *testing.T) {
	m := openManager(t, testOpts(t))
	_, err := m.Submit(Request{QASM: testQASM(t), Params: Params{Objective: "espresso"}})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
	if n := m.Stats().Counters.Submitted; n != 0 {
		t.Fatalf("bad objective counted as submitted (%d)", n)
	}
}
