// Disk persistence for the synthesis cache: an append-only, checksummed
// journal that lets warm hits survive process restarts.
//
// The journal is in the internal/journal format (one checksummed JSON
// record per line). The first line's payload is a header {v, grid, tol,
// cap} identifying the journal version and the key-derivation parameters;
// every following line is one cache entry (key, phase-normalized target,
// full synthesis result). Candidates are stored in synth.Candidate's own
// JSON form, whose circuits are circuit.Circuit's op lists: the same
// codec questd's synthesis artifacts use.
//
// Invalidation rules:
//
//   - A header whose version, grid bits, or tolerance bits differ from the
//     opening cache is a clean miss: the journal is discarded and rewritten
//     empty. Keys are derived from grid/tol, so entries written under other
//     parameters must never be trusted (a stale key could alias a different
//     target bucket). A capacity change only rewrites the header; entries
//     stay valid and are trimmed to the new bound by the in-memory LRU.
//   - A record whose checksum does not match its payload (torn write,
//     truncated tail after a crash, bit rot) is skipped; loading continues
//     with the next line. Corruption can only lose entries, never fabricate
//     a hit: every lookup still verifies the stored target against the
//     request before returning a result.
//   - A record that decodes but fails structural validation is skipped the
//     same way: a target that is not a square 2ⁿ×2ⁿ matrix, no
//     candidates, or any candidate (Best included) that fails
//     synth.Candidate.Check(n) — a missing circuit, a width other than
//     the target's n, an unknown gate, a wrong operand or parameter
//     count, a qubit out of range or repeated.
//
// Writes append one record per insert under the cache lock; a crash can
// only tear the final line, which the checksum rejects on the next load.
// Superseded and evicted records are left in place until the journal holds
// more than twice the cache capacity, at which point it is compacted: the
// live entries are rewritten (LRU order, oldest first) as an image that
// atomically replaces the journal. Reloading therefore reconstructs the
// same entry set with the same recency order.
//
// Appends are NOT synced — an entry is a cache optimization, and losing
// the tail of a journal to power loss only costs re-synthesis. The
// compaction image (before its rename) and the journal on Close are
// synced: both go through journal.Sync.
package ucache

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"

	"repro/internal/journal"
	"repro/internal/linalg"
	"repro/internal/synth"
)

// diskVersion identifies the journal layout; bump on any incompatible
// change to the header or record schema.
const diskVersion = 1

// journalName is the journal's file name inside the cache directory.
const journalName = "synth.journal"

type diskHeader struct {
	V    int     `json:"v"`
	Grid float64 `json:"grid"`
	Tol  float64 `json:"tol"`
	Cap  int     `json:"cap"`
}

// diskMatrix carries a complex matrix as interleaved (re, im) pairs; JSON
// floats round-trip bit-for-bit (shortest-form encoding), so the stored
// target compares bit-identical after reload.
type diskMatrix struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// diskRecord is one cache entry. Candidates use their own JSON form (the
// circuit codec of package circuit), so a record is validated by
// decode before anything is built from it.
type diskRecord struct {
	Key         uint64            `json:"key"`
	Target      diskMatrix        `json:"target"`
	Best        synth.Candidate   `json:"best"`
	Candidates  []synth.Candidate `json:"candidates"`
	Evaluations int               `json:"evals"`
}

// diskStore is the journal side of a disk-backed cache.
type diskStore struct {
	f       *journal.File // first append/compact failure latches; Close reports it
	records int           // journal body records, live + superseded
}

// OpenDisk returns a cache whose entries persist in dir. The directory is
// created if needed; an existing journal written with the same version,
// grid, and tolerance is loaded (entries trimmed to capacity), anything
// else is discarded and started fresh. The returned cache behaves exactly
// like New(capacity, tol) plus persistence; call Close to release the
// journal file. Persistence is best-effort: if an append fails the cache
// keeps serving from memory and Close reports the first write error.
func OpenDisk(dir string, capacity int, tol float64) (*Cache, error) {
	c := New(capacity, tol)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ucache: create cache dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("ucache: read journal: %w", err)
	}
	f, err := journal.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ucache: %w", err)
	}
	ds := &diskStore{f: f}
	// Start fresh on a missing, bad or foreign header; rewrite also when
	// the load left dead weight beyond the compaction bound.
	if !c.loadJournal(data, ds) || ds.records > 2*c.cap {
		if err := ds.rewrite(c); err != nil {
			f.Close()
			return nil, fmt.Errorf("ucache: %w", err)
		}
	}
	c.stats = Stats{} // loading is not cache activity
	c.disk = ds
	return c, nil
}

// Close releases the journal file of a disk-backed cache and reports the
// first persistence error encountered, if any. On a memory-only cache it
// is a no-op.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk == nil {
		return nil
	}
	ds := c.disk
	c.disk = nil
	return ds.f.Close()
}

// loadJournal parses journal bytes into the (empty) cache. It reports
// whether the header matched this cache's parameters; entries are only
// inserted when it did. ds.records counts the body lines seen, including
// skipped and superseded ones, so the caller can decide to compact.
func (c *Cache) loadJournal(data []byte, ds *diskStore) bool {
	head, body, lines := journal.Parse(data)
	var h diskHeader
	if head == nil || json.Unmarshal(head, &h) != nil {
		return false
	}
	if h.V != diskVersion ||
		math.Float64bits(h.Grid) != math.Float64bits(c.grid) ||
		math.Float64bits(h.Tol) != math.Float64bits(c.tol) {
		return false
	}
	ds.records = lines
	for _, payload := range body {
		var rec diskRecord
		if json.Unmarshal(payload, &rec) != nil {
			continue // corrupt record: skip, keep loading
		}
		target, res, ok := rec.decode()
		if !ok {
			continue
		}
		c.insert(rec.Key, target, res)
	}
	return h.Cap == c.cap
}

// appendRecord journals one freshly inserted entry, unsynced. Caller holds
// c.mu. Failures latch in the journal file and the cache degrades to
// memory-only behavior.
func (ds *diskStore) appendRecord(key uint64, target *linalg.Matrix, res synth.Result) {
	ds.f.Append(encodeRecord(key, target, res))
	ds.records++
}

// maybeCompact rewrites the journal once it holds more than twice the
// cache capacity in records. Caller holds c.mu. A failure latches and is
// reported by Close.
func (c *Cache) maybeCompact() {
	ds := c.disk
	if ds == nil || ds.f.Err() != nil || ds.records <= 2*c.cap {
		return
	}
	ds.rewrite(c)
}

// rewrite replaces the journal with a compact image of the cache: header
// plus live entries in LRU order (oldest first, so a sequential reload
// reconstructs the same recency order).
func (ds *diskStore) rewrite(c *Cache) error {
	recs := make([]diskRecord, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		recs = append(recs, encodeRecord(e.key, e.target, e.res))
	}
	image, err := journal.Image(diskHeader{V: diskVersion, Grid: c.grid, Tol: c.tol, Cap: c.cap}, recs)
	if err != nil {
		return ds.f.Fail(err)
	}
	if err := ds.f.Replace(image); err != nil {
		return err
	}
	ds.records = len(recs)
	return nil
}

func encodeRecord(key uint64, target *linalg.Matrix, res synth.Result) diskRecord {
	return diskRecord{
		Key:         key,
		Target:      encodeMatrix(target),
		Best:        res.Best,
		Candidates:  res.Candidates,
		Evaluations: res.Evaluations,
	}
}

func encodeMatrix(m *linalg.Matrix) diskMatrix {
	data := make([]float64, 0, 2*len(m.Data))
	for _, v := range m.Data {
		data = append(data, real(v), imag(v))
	}
	return diskMatrix{Rows: m.Rows, Cols: m.Cols, Data: data}
}

// decode validates and reconstructs a journal record. ok is false for any
// structurally invalid record — a target that is not a square 2ⁿ×2ⁿ
// matrix, an empty result, or a candidate that is not a valid n-qubit
// circuit — and such records are skipped at load.
func (r *diskRecord) decode() (*linalg.Matrix, synth.Result, bool) {
	// rows ≤ len(Data) keeps 2·rows² from overflowing int.
	rows := r.Target.Rows
	if rows < 2 || rows&(rows-1) != 0 || rows > len(r.Target.Data) || r.Target.Cols != rows ||
		len(r.Target.Data) != 2*rows*rows || len(r.Candidates) == 0 {
		return nil, synth.Result{}, false
	}
	width := bits.TrailingZeros(uint(rows))
	if r.Best.Check(width) != nil {
		return nil, synth.Result{}, false
	}
	for _, c := range r.Candidates {
		if c.Check(width) != nil {
			return nil, synth.Result{}, false
		}
	}
	target := linalg.New(rows, rows)
	for i := range target.Data {
		target.Data[i] = complex(r.Target.Data[2*i], r.Target.Data[2*i+1])
	}
	return target, synth.Result{Best: r.Best, Candidates: r.Candidates, Evaluations: r.Evaluations}, true
}
