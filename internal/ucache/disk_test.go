package ucache

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/linalg"
	"repro/internal/qasm"
	"repro/internal/synth"
)

func journalPath(dir string) string { return filepath.Join(dir, journalName) }

// mustSynth populates the cache with one target and returns the cold result.
func mustSynth(t *testing.T, c *Cache, target *linalg.Matrix) synth.Result {
	t.Helper()
	res, hit, err := c.Synthesize(target, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("expected cold miss")
	}
	return res
}

func TestDiskWarmHitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(20))
	target := linalg.RandomUnitary(4, rng)

	c1, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := mustSynth(t, c1, target)
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// "Restart": a fresh cache over the same directory serves the entry
	// without re-synthesizing — the on-disk warm hit.
	c2, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	warm, hit, err := c2.Synthesize(target, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("reloaded cache missed")
	}
	if st := c2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats after restart = %+v, want 1 hit / 0 misses", st)
	}
	if len(warm.Candidates) != len(cold.Candidates) || warm.Evaluations != cold.Evaluations {
		t.Fatalf("warm result shape differs: %d candidates / %d evals, want %d / %d",
			len(warm.Candidates), warm.Evaluations, len(cold.Candidates), cold.Evaluations)
	}
	for i := range warm.Candidates {
		w, co := warm.Candidates[i], cold.Candidates[i]
		if math.Float64bits(w.Distance) != math.Float64bits(co.Distance) || w.CNOTs != co.CNOTs {
			t.Errorf("candidate %d: (%v, %d) != cold (%v, %d)", i, w.Distance, w.CNOTs, co.Distance, co.CNOTs)
		}
		if qasm.Write(w.Circuit) != qasm.Write(co.Circuit) {
			t.Errorf("candidate %d circuit differs after disk round-trip", i)
		}
	}
	if qasm.Write(warm.Best.Circuit) != qasm.Write(cold.Best.Circuit) {
		t.Error("best circuit differs after disk round-trip")
	}
}

func TestDiskTruncatedJournalTail(t *testing.T) {
	// A crash mid-append tears the final record. Loading must keep every
	// complete record and turn the torn one into a clean miss.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(21))
	t1 := linalg.RandomUnitary(4, rng)
	t2 := linalg.RandomUnitary(4, rng)

	c1, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustSynth(t, c1, t1)
	mustSynth(t, c1, t2)
	c1.Close()

	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(dir), data[:len(data)-37], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatalf("truncated journal must open cleanly: %v", err)
	}
	defer c2.Close()
	if c2.Len() != 1 {
		t.Fatalf("Len = %d after losing the torn record, want 1", c2.Len())
	}
	if _, hit, err := c2.Synthesize(t1, testOpts); err != nil || !hit {
		t.Fatalf("intact record must hit: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c2.Synthesize(t2, testOpts); err != nil || hit {
		t.Fatalf("torn record must be a clean miss, got hit=%v err=%v", hit, err)
	}
}

func TestDiskCorruptRecordSkipped(t *testing.T) {
	// Bit rot inside one record fails its checksum; the rest of the
	// journal loads, and the damaged entry is a miss — never a wrong hit.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(22))
	t1 := linalg.RandomUnitary(4, rng)
	t2 := linalg.RandomUnitary(4, rng)

	c1, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustSynth(t, c1, t1)
	mustSynth(t, c1, t2)
	c1.Close()

	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want header + 2 records", len(lines))
	}
	mid := len(lines[1]) / 2
	lines[1][mid] ^= 0x40 // flip a bit inside record 1's payload
	if err := os.WriteFile(journalPath(dir), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatalf("corrupt record must not fail open: %v", err)
	}
	defer c2.Close()
	if _, hit, err := c2.Synthesize(t1, testOpts); err != nil || hit {
		t.Fatalf("corrupt record must be a clean miss, got hit=%v err=%v", hit, err)
	}
	if _, hit, err := c2.Synthesize(t2, testOpts); err != nil || !hit {
		t.Fatalf("undamaged record must still hit: hit=%v err=%v", hit, err)
	}
}

func TestDiskVersionMismatchStartsFresh(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(23))
	target := linalg.RandomUnitary(4, rng)

	c1, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustSynth(t, c1, target)
	c1.Close()

	// Rewrite the header as a future version with a VALID checksum: the
	// version check alone must reject the journal.
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfterN(data, []byte{'\n'}, 2)
	head := journal.Line([]byte(`{"v":99,"grid":1e-12,"tol":0,"cap":8}`))
	if err := os.WriteFile(journalPath(dir), append(head, lines[1]...), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatalf("version mismatch must open cleanly: %v", err)
	}
	defer c2.Close()
	if c2.Len() != 0 {
		t.Fatalf("foreign-version journal loaded %d entries, want 0", c2.Len())
	}
	if _, hit, err := c2.Synthesize(target, testOpts); err != nil || hit {
		t.Fatalf("want clean miss after version mismatch, got hit=%v err=%v", hit, err)
	}
}

func TestDiskToleranceMismatchStartsFresh(t *testing.T) {
	// Keys are derived from the quantization grid, so a journal written
	// under a different tolerance must be discarded wholesale.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(24))
	target := linalg.RandomUnitary(4, rng)

	c1, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustSynth(t, c1, target)
	c1.Close()

	c2, err := OpenDisk(dir, 8, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 0 {
		t.Fatalf("journal written at tol=0 loaded into tol=1e-6 cache: %d entries", c2.Len())
	}
	c2.Close()
}

func TestDiskCapacityChangeKeepsEntries(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(25))
	target := linalg.RandomUnitary(4, rng)

	c1, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustSynth(t, c1, target)
	c1.Close()

	c2, err := OpenDisk(dir, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, hit, err := c2.Synthesize(target, testOpts); err != nil || !hit {
		t.Fatalf("capacity change must keep valid entries: hit=%v err=%v", hit, err)
	}
}

func TestDiskCompactionBoundsJournalAndKeepsLRU(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(26))
	const capacity = 2
	targets := make([]*linalg.Matrix, 6)
	c1, err := OpenDisk(dir, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range targets {
		targets[i] = linalg.RandomUnitary(4, rng)
		if _, _, err := c1.Synthesize(targets[i], testOpts); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte{'\n'}); lines > 1+2*capacity {
		t.Fatalf("journal has %d lines after 6 inserts at cap %d; compaction must bound it to <= %d",
			lines, capacity, 1+2*capacity)
	}

	c2, err := OpenDisk(dir, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != capacity {
		t.Fatalf("reloaded Len = %d, want %d", c2.Len(), capacity)
	}
	// The two most recently inserted targets survive; older ones are gone.
	// Hits are probed first: a miss re-synthesizes and inserts, which would
	// evict the very entries under test from the capacity-2 cache.
	for _, i := range []int{4, 5} {
		if _, hit, err := c2.Synthesize(targets[i], testOpts); err != nil || !hit {
			t.Fatalf("target %d: hit=%v err=%v, want hit", i, hit, err)
		}
	}
	for _, i := range []int{0, 1, 2, 3} {
		if _, hit, err := c2.Synthesize(targets[i], testOpts); err != nil || hit {
			t.Fatalf("target %d: hit=%v err=%v, want miss", i, hit, err)
		}
	}
}

func TestDiskCloseIdempotentAndMemoryOnlyNoop(t *testing.T) {
	c := New(4, 0)
	if err := c.Close(); err != nil {
		t.Fatalf("memory-only Close: %v", err)
	}
	dir := t.TempDir()
	d, err := OpenDisk(dir, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestStatsSubDetectsCounterReset(t *testing.T) {
	prev := Stats{Hits: 10, Misses: 4, Evictions: 2}
	cur := Stats{Hits: 12, Misses: 5, Evictions: 2}
	if got := cur.Sub(prev); got != (Stats{Hits: 2, Misses: 1}) {
		t.Fatalf("normal delta = %+v", got)
	}
	// After a counter reset (e.g. cache reopened), the snapshot runs
	// behind the baseline; unsigned subtraction would wrap to ~2^64.
	reset := Stats{Hits: 3, Misses: 1, Evictions: 0}
	got := reset.Sub(prev)
	if got != reset {
		t.Fatalf("reset delta = %+v, want the post-reset counts %+v", got, reset)
	}
	if got.Hits > 1<<62 || got.Misses > 1<<62 {
		t.Fatal("delta wrapped negative")
	}
}

func TestPhaseFactorAnchorsOnLargestMagnitudeEntry(t *testing.T) {
	// Regression: the phase anchor must be the largest-magnitude entry,
	// not the first nonzero one. With leading entries at ~1e-12 (around
	// the quantization grid), anchoring on them would derive the phase
	// from numeric noise and split keys for phase-rotated copies.
	rng := rand.New(rand.NewSource(27))
	m := linalg.RandomUnitary(4, rng)
	for i := 0; i < m.Rows; i++ {
		v := m.At(i, 0)
		m.Set(i, 0, v*complex(1e-12/cmplx.Abs(v), 0))
	}
	p := phaseFactor(m)
	// The anchor entry lands on the positive real axis.
	best, bestMag := 0, 0.0
	for i, v := range m.Data {
		if mag := cmplx.Abs(v); mag > bestMag {
			best, bestMag = i, mag
		}
	}
	anchored := m.Data[best] * p
	if math.Abs(imag(anchored)) > 1e-15*bestMag || real(anchored) <= 0 {
		t.Fatalf("anchor rotated to %v, want positive real", anchored)
	}
	if bestMag < 1e-6 {
		t.Fatalf("test setup: largest magnitude %g unexpectedly tiny", bestMag)
	}
	// Key stability: a global phase rotation must not change the key.
	rot := m.Copy()
	phase := cmplx.Exp(complex(0, 0.7))
	for i := range rot.Data {
		rot.Data[i] *= phase
	}
	if TargetKey(m) != TargetKey(rot) {
		t.Fatal("TargetKey differs under global phase with tiny leading column")
	}
	c := New(4, 0)
	if c.key(m, testOpts.Canonical(2)) != c.key(rot, testOpts.Canonical(2)) {
		t.Fatal("cache key differs under global phase with tiny leading column")
	}
}
