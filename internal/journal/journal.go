// Package journal owns the on-disk format and the durability steps shared
// by every checksummed JSON-lines file in the repository: questd's job
// journal (internal/jobs), the synthesis cache journal (internal/ucache),
// and — through WriteFile alone — questd's artifact store.
//
// A journal is text, one record per line:
//
//	<16 hex digits> <JSON payload>\n
//
// The hex prefix is the FNV-1a 64 checksum of the payload bytes, in
// lowercase. The first line is a header whose payload the caller defines
// (typically a version plus the parameters the body depends on); every
// following line is one record. Parse verifies each line independently,
// so a crash that tears the final line, or bit rot inside one record,
// loses exactly that record and nothing else.
//
// Durability: WriteFile lands a whole image under a unique temporary name
// beside the target, fsyncs it, and renames it over the target, so a
// reader never sees a torn image. A File appends records to an open
// journal either durably (Commit: write, then fsync, before success is
// reported) or best-effort (Append: write only). Every fsync goes through
// Sync, the package's one seam for tests that observe or fail the
// durability points.
package journal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
)

// Sync is the fsync seam: every durability point of this package calls it.
// Tests swap it to observe which files are synced or to inject failures.
var Sync = func(f *os.File) error { return f.Sync() }

// Line renders one framed line: "<fnv64a hex> <payload>\n".
func Line(payload []byte) []byte {
	sum := prefix(payload)
	out := make([]byte, 0, len(payload)+18)
	out = append(out, sum[:]...)
	out = append(out, ' ')
	out = append(out, payload...)
	return append(out, '\n')
}

// prefix renders the FNV-1a 64 checksum of payload as 16 lowercase hex
// digits.
func prefix(payload []byte) [16]byte {
	h := fnv.New64a()
	h.Write(payload)
	var out [16]byte
	hex.Encode(out[:], h.Sum(nil))
	return out
}

// verify splits a line (without its newline) into its payload and checks
// the checksum prefix. Only the exact framing Line produces verifies.
func verify(line []byte) ([]byte, bool) {
	if len(line) < 18 || line[16] != ' ' {
		return nil, false
	}
	payload := line[17:]
	if sum := prefix(payload); !bytes.Equal(line[:16], sum[:]) {
		return nil, false
	}
	return payload, true
}

// Parse splits journal bytes into the verified header payload (nil when
// the first line does not verify, in which case nothing else is returned),
// the verified body payloads in file order, and the number of non-empty
// body lines — verified or not — which callers use to size compaction.
// Lines whose checksum fails are skipped; Parse never trusts them.
func Parse(data []byte) (header []byte, body [][]byte, lines int) {
	first, rest, _ := bytes.Cut(data, []byte{'\n'})
	header, ok := verify(first)
	if !ok {
		return nil, nil, 0
	}
	for len(rest) > 0 {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		lines++
		if payload, ok := verify(line); ok {
			body = append(body, payload)
		}
	}
	return header, body, lines
}

// Image renders a whole journal: the JSON-encoded header line followed by
// one line per record, in order.
func Image[T any](header any, records []T) ([]byte, error) {
	var buf bytes.Buffer
	head, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("journal: encode header: %w", err)
	}
	buf.Write(Line(head))
	for i := range records {
		payload, err := json.Marshal(records[i])
		if err != nil {
			return nil, fmt.Errorf("journal: encode record: %w", err)
		}
		buf.Write(Line(payload))
	}
	return buf.Bytes(), nil
}

// WriteFile atomically replaces path with the bytes write produces: they
// go to a uniquely named temporary file beside path, which is synced,
// closed, and renamed over path. The sync comes before the rename — without
// it the rename can become durable ahead of the data it points at. On any
// failure path is untouched and the temporary file is removed.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("journal: create %s: %w", filepath.Base(path), err)
	}
	tmp := f.Name()
	err = f.Chmod(0o644)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		if err = Sync(f); err != nil {
			err = fmt.Errorf("sync: %w", err)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// File is an open journal's append handle. Its first failure latches:
// every later Commit returns it, every later Append is dropped, and Close
// reports it. A File is not safe for concurrent use; callers serialize.
type File struct {
	path string
	f    *os.File
	err  error
}

// Open opens path for appending, creating it if needed. The caller writes
// the header first (WriteFile with an Image) when the file is new.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", filepath.Base(path), err)
	}
	return &File{path: path, f: f}, nil
}

// Err returns the latched first failure, or nil while the journal is
// healthy.
func (j *File) Err() error { return j.err }

// Fail latches err as the journal's failure unless one is already latched,
// and returns the latched failure. Callers use it for failures detected
// outside the handle (an injected fault) that must turn the journal
// unhealthy all the same.
func (j *File) Fail(err error) error {
	if j.err == nil {
		j.err = err
	}
	return j.err
}

// usable returns the latched failure, latching one first if the handle
// is closed.
func (j *File) usable() error {
	if j.f == nil {
		j.Fail(fmt.Errorf("journal: %s is closed", filepath.Base(j.path)))
	}
	return j.err
}

// line encodes one record as a framed line, latching an encoding failure.
func (j *File) line(rec any) ([]byte, bool) {
	if j.usable() != nil {
		return nil, false
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		j.Fail(fmt.Errorf("journal: encode record: %w", err))
		return nil, false
	}
	return Line(payload), true
}

// Commit appends one record durably: the line is written and synced before
// Commit returns nil, so an acknowledgement sent after it survives power
// loss.
func (j *File) Commit(rec any) error {
	line, ok := j.line(rec)
	if !ok {
		return j.err
	}
	if _, err := j.f.Write(line); err != nil {
		return j.Fail(fmt.Errorf("journal: append: %w", err))
	}
	if err := Sync(j.f); err != nil {
		return j.Fail(fmt.Errorf("journal: sync %s: %w", filepath.Base(j.path), err))
	}
	return nil
}

// Append writes one record without syncing — for journals whose records
// are an optimization a power loss may cost (the tail is rejected by its
// checksum on the next Parse). A failure latches and is reported by Err
// and Close.
func (j *File) Append(rec any) {
	line, ok := j.line(rec)
	if !ok {
		return
	}
	if _, err := j.f.Write(line); err != nil {
		j.Fail(fmt.Errorf("journal: append: %w", err))
	}
}

// Replace atomically rewrites the journal as image (WriteFile) and reopens
// the handle on the new file. A failure latches.
func (j *File) Replace(image []byte) error {
	if err := j.usable(); err != nil {
		return err
	}
	err := WriteFile(j.path, func(w io.Writer) error {
		_, err := w.Write(image)
		return err
	})
	if err != nil {
		return j.Fail(err)
	}
	j.f.Close()
	nf, err := Open(j.path)
	if err != nil {
		j.f = nil
		return j.Fail(err)
	}
	j.f = nf.f
	return nil
}

// Close syncs and closes the file and returns the first failure over the
// journal's lifetime. Closing twice is harmless.
func (j *File) Close() error {
	if j.f == nil {
		return j.err
	}
	f := j.f
	j.f = nil
	if err := Sync(f); err != nil {
		j.Fail(fmt.Errorf("journal: sync %s: %w", filepath.Base(j.path), err))
	}
	if err := f.Close(); err != nil {
		j.Fail(fmt.Errorf("journal: close %s: %w", filepath.Base(j.path), err))
	}
	return j.err
}
