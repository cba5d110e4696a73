package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jn, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	j := &Job{ID: "j-00000001", QASM: "x", State: Queued}
	must := func(rec record) {
		t.Helper()
		if err := jn.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	must(record{Op: "submit", Job: j})
	must(record{Op: "start", ID: j.ID, Attempt: 1})
	must(record{Op: "done", ID: j.ID, Artifact: "abc", AEps: 0.05, SHA: "deadbeef"})
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}

	jn2, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[0].Op != "submit" || recs[0].Job == nil || recs[0].Job.ID != j.ID {
		t.Errorf("submit record did not round-trip: %+v", recs[0])
	}
	if recs[2].Op != "done" || recs[2].SHA != "deadbeef" || recs[2].Artifact != "abc" {
		t.Errorf("done record did not round-trip: %+v", recs[2])
	}
}

func TestJournalSkipsTornTail(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.append(record{Op: "submit", Job: &Job{ID: "j-00000001"}}); err != nil {
		t.Fatal(err)
	}
	if err := jn.append(record{Op: "start", ID: "j-00000001", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}

	// A crash can tear the final line mid-write: truncate it.
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	jn2, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.close()
	if len(recs) != 1 || recs[0].Op != "submit" {
		t.Fatalf("replay after torn tail = %+v, want just the submit", recs)
	}
}

func TestJournalBadHeaderStartsFresh(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte("not a journal at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from a foreign file", len(recs))
	}
	old, err := os.ReadFile(path + ".old")
	if err != nil || !strings.Contains(string(old), "not a journal") {
		t.Errorf("foreign journal was not preserved as .old: %v", err)
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := jn.append(record{Op: "start", ID: "j-00000001", Attempt: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !jn.needsCompaction(1) {
		// 10 records > 6·1 but below compactMin; the bound must respect
		// the minimum.
		if compactMin <= 10 {
			t.Fatal("needsCompaction(1) = false with 10 records")
		}
	}
	snap := &Job{ID: "j-00000001", State: Done, ResultSHA: "abc"}
	if err := jn.compact([]record{{Op: "state", Job: snap}}); err != nil {
		t.Fatal(err)
	}
	// Appends after compaction must land in the new file.
	if err := jn.append(record{Op: "cancel", ID: "j-00000002"}); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}

	jn2, recs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.close()
	if len(recs) != 2 || recs[0].Op != "state" || recs[1].Op != "cancel" {
		t.Fatalf("replay after compaction = %+v", recs)
	}
	if recs[0].Job == nil || recs[0].Job.ResultSHA != "abc" {
		t.Errorf("state snapshot lost fields: %+v", recs[0].Job)
	}
}

// TestJournalSyncFailureRefusesSubmit: the job journal commits through
// journal.Sync, so a failing fsync must refuse the submission (no ack for
// an undurable transition) and latch the manager unhealthy.
func TestJournalSyncFailureRefusesSubmit(t *testing.T) {
	opts := testOpts(t)
	opts.Workers = -1
	m := openManager(t, opts)
	boom := errors.New("injected sync failure")
	prev := journal.Sync
	journal.Sync = func(*os.File) error { return boom }
	defer func() { journal.Sync = prev }()

	if _, err := m.Submit(Request{QASM: testQASM(t)}); !errors.Is(err, boom) {
		t.Fatalf("submit with failing fsync = %v, want the injected failure", err)
	}
	if err := m.Health(); !errors.Is(err, boom) {
		t.Fatalf("health = %v, want the latched sync failure", err)
	}
	if st := m.Stats(); st.QueueDepth != 0 || st.JournalOK {
		t.Fatalf("refused submission left queue depth %d, journal ok %v", st.QueueDepth, st.JournalOK)
	}
}
