package ucache

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
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

// journalWith returns a journal for a New(8, 0) cache: its header, then
// each record framed as one line.
func journalWith(t testing.TB, records ...diskRecord) []byte {
	t.Helper()
	head, err := json.Marshal(diskHeader{V: diskVersion, Grid: minGrid, Tol: 0, Cap: 8})
	if err != nil {
		t.Fatal(err)
	}
	out := journal.Line(head)
	for _, r := range records {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, journal.Line(payload)...)
	}
	return out
}

// record is an entry whose rows×cols target is all zeros.
func record(key uint64, rows, cols int, best synth.Candidate, cands ...synth.Candidate) diskRecord {
	return diskRecord{
		Key:         key,
		Target:      diskMatrix{Rows: rows, Cols: cols, Data: make([]float64, 2*rows*cols)},
		Best:        best,
		Candidates:  cands,
		Evaluations: 1,
	}
}

// empty is a candidate whose circuit is the gate-free n-qubit circuit.
func empty(n int) synth.Candidate { return synth.Candidate{Circuit: circuit.New(n)} }

// identityRecord is a valid record: a 2-qubit identity target whose only
// candidate is the empty 2-qubit circuit.
func identityRecord() diskRecord {
	rec := record(1, 4, 4, empty(2), empty(2))
	rec.Target = encodeMatrix(linalg.Identity(4))
	return rec
}

// Records that pass the checksum and decode as JSON but describe no
// entry a synthesis could have produced are skipped at load: each would
// otherwise be a hit whose circuit does not implement its target, or
// one that panics when simulated. The valid record beside each still
// loads. The first case breaks only Best, the second only a listed
// candidate.
func TestDiskSkipsStructurallyInvalidRecords(t *testing.T) {
	selfCX := synth.Candidate{Circuit: &circuit.Circuit{
		NumQubits: 2, Ops: []circuit.Op{{Name: "cx", Qubits: []int{0, 0}}},
	}}
	cases := map[string]diskRecord{
		"2-qubit best under an 8x8 target":  record(2, 8, 8, empty(2), empty(3)),
		"cx q[0],q[0] among the candidates": record(2, 4, 4, empty(2), selfCX),
		"6x6 target":                        record(2, 6, 6, empty(1), empty(1)),
		"4x8 target":                        record(2, 4, 8, empty(2), empty(2)),
	}
	for name, rec := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(journalPath(dir), journalWith(t, identityRecord(), rec), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := OpenDisk(dir, 8, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Len() != 1 {
				t.Fatalf("loaded %d entries, want only the valid one", c.Len())
			}
		})
	}
}

// recordedJournal was written by a cache before candidates carried their
// own JSON form (they were copied into private op-list structs): three
// entries, the syntheses of RandomUnitary(4), RandomUnitary(4) and
// RandomUnitary(8) drawn from seed 40, under testOpts.
var recordedJournal = filepath.Join("testdata", "synth_v1.journal")

// The shared circuit codec writes the bytes the private one wrote: the
// recorded journal loads with every entry a hit, and compacting it
// reproduces it byte for byte.
func TestDiskLoadsRecordedJournal(t *testing.T) {
	want, err := os.ReadFile(recordedJournal)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), want, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenDisk(dir, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 3 {
		t.Fatalf("loaded %d entries, want 3", c.Len())
	}
	if err := c.disk.rewrite(c); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(journalPath(dir)); err != nil || !bytes.Equal(got, want) {
		t.Errorf("re-encoded journal differs from the recorded one (err %v)", err)
	}
	rng := rand.New(rand.NewSource(40))
	for i, dim := range []int{4, 4, 8} {
		if _, hit, err := c.Synthesize(linalg.RandomUnitary(dim, rng), testOpts); err != nil || !hit {
			t.Errorf("entry %d: hit=%v err=%v, want a hit", i, hit, err)
		}
	}
}

// FuzzLoadJournal feeds arbitrary journal bytes to the loader: it never
// panics, and every entry it loads holds candidates of its target's
// width.
func FuzzLoadJournal(f *testing.F) {
	recorded, err := os.ReadFile(recordedJournal)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)
	f.Add(journalWith(f, identityRecord()))
	f.Add(journalWith(f, record(2, 8, 8, empty(3), empty(3), empty(2))))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		c := New(8, 0)
		c.loadJournal(data, &diskStore{})
		for el := c.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			width := bits.TrailingZeros(uint(e.target.Rows))
			if e.target.Rows != 1<<width || e.target.Cols != e.target.Rows {
				t.Fatalf("loaded a %dx%d target", e.target.Rows, e.target.Cols)
			}
			for _, cand := range append([]synth.Candidate{e.res.Best}, e.res.Candidates...) {
				if err := cand.Check(width); err != nil {
					t.Fatalf("loaded an invalid candidate for a %d-qubit target: %v", width, err)
				}
			}
		}
	})
}
