package ucache

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/journal"
	"repro/internal/linalg"
)

// syncRecorder swaps the fsync seam for one that records which files get
// synced (by name, captured at call time — the tmp file is renamed away
// right after its sync) and restores the real seam on cleanup.
type syncRecorder struct {
	mu    sync.Mutex
	names []string
	err   error // injected failure, if any
}

func recordSyncs(t *testing.T) *syncRecorder {
	t.Helper()
	rec := &syncRecorder{}
	prev := journal.Sync
	journal.Sync = func(f *os.File) error {
		rec.mu.Lock()
		rec.names = append(rec.names, f.Name())
		err := rec.err
		rec.mu.Unlock()
		if err != nil {
			return err
		}
		return prev(f)
	}
	t.Cleanup(func() { journal.Sync = prev })
	return rec
}

// synced counts the synced files whose base name matches pattern
// (filepath.Match syntax).
func (r *syncRecorder) synced(pattern string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, name := range r.names {
		if ok, _ := filepath.Match(pattern, filepath.Base(name)); ok {
			n++
		}
	}
	return n
}

func TestCloseSyncsJournal(t *testing.T) {
	rec := recordSyncs(t)
	dir := t.TempDir()
	c, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	mustSynth(t, c, linalg.RandomUnitary(4, rng))
	if got := rec.synced(journalName); got != 0 {
		t.Fatalf("journal synced %d times before Close (appends must not sync)", got)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := rec.synced(journalName); got != 1 {
		t.Fatalf("journal synced %d times on Close, want 1", got)
	}
}

func TestCompactionSyncsTmpBeforeRename(t *testing.T) {
	rec := recordSyncs(t)
	dir := t.TempDir()
	// Capacity 2: the third insert pushes the journal past 2*cap records
	// and triggers a compaction, whose image must be synced while it is
	// still the .tmp file.
	c, err := OpenDisk(dir, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 5; i++ {
		mustSynth(t, c, linalg.RandomUnitary(4, rng))
	}
	if got := rec.synced(journalName + ".*.tmp"); got < 1 {
		t.Fatalf("compaction tmp file synced %d times, want at least 1", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("tmp files left behind after compaction: %v", left)
	}
}

func TestCloseReportsSyncFailure(t *testing.T) {
	rec := recordSyncs(t)
	boom := errors.New("injected sync failure")
	dir := t.TempDir()
	c, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	mustSynth(t, c, linalg.RandomUnitary(4, rng))
	rec.mu.Lock()
	rec.err = boom
	rec.mu.Unlock()
	if err := c.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the injected sync failure", err)
	}
}
