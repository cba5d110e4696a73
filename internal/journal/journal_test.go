package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// syncRecorder swaps Sync for one that records each synced file's name
// and size at sync time (the size proves the write came first), failing
// with err when set. The real Sync is restored on cleanup.
type syncRecorder struct {
	mu    sync.Mutex
	names []string
	sizes []int64
	err   error
}

func recordSyncs(t *testing.T) *syncRecorder {
	t.Helper()
	rec := &syncRecorder{}
	prev := Sync
	Sync = func(f *os.File) error {
		st, err := f.Stat()
		if err != nil {
			return err
		}
		rec.mu.Lock()
		rec.names = append(rec.names, filepath.Base(f.Name()))
		rec.sizes = append(rec.sizes, st.Size())
		fail := rec.err
		rec.mu.Unlock()
		if fail != nil {
			return fail
		}
		return prev(f)
	}
	t.Cleanup(func() { Sync = prev })
	return rec
}

func (r *syncRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.names)
}

func (r *syncRecorder) fail(err error) {
	r.mu.Lock()
	r.err = err
	r.mu.Unlock()
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openFresh creates a journal holding just a header and opens it.
func openFresh(t *testing.T) (*File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.journal")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	image, err := Image(map[string]int{"v": 1}, []string(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Replace(image); err != nil {
		t.Fatal(err)
	}
	return f, path
}

func TestLineFraming(t *testing.T) {
	// FNV-1a 64 of "{}" in lowercase hex, a space, the payload, newline.
	if got, want := string(Line([]byte("{}"))), "08f44b07b5901a25 {}\n"; got != want {
		t.Fatalf("Line = %q, want %q", got, want)
	}
}

func TestParseSkipsCorruptAndTornLines(t *testing.T) {
	image, err := Image("h", []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(image, []byte{'\n'})
	// Corrupt record "a" (payload byte flipped), upper-case the checksum
	// of "b" (only Line's exact framing verifies), tear "c" mid-line.
	bad := append([]byte(nil), lines[1]...)
	bad[len(bad)-3] ^= 1
	upper := bytes.ToUpper(lines[2][:16])
	upper = append(upper, lines[2][16:]...)
	torn := lines[3][:len(lines[3])-4]
	data := bytes.Join([][]byte{lines[0], bad, upper, torn}, nil)

	head, body, n := Parse(data)
	if string(head) != `"h"` {
		t.Fatalf("header = %q", head)
	}
	if len(body) != 0 || n != 3 {
		t.Fatalf("Parse replayed %q from %d lines, want nothing from 3", body, n)
	}
	if head, body, n := Parse(data[1:]); head != nil || body != nil || n != 0 {
		t.Fatalf("Parse with a broken header = %q %q %d, want nothing", head, body, n)
	}
}

func TestCommitSyncsBeforeReturning(t *testing.T) {
	f, path := openFresh(t)
	defer f.Close()
	rec := recordSyncs(t)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("rec"); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 || rec.names[0] != "test.journal" {
		t.Fatalf("Commit synced %v, want the journal once", rec.names)
	}
	if rec.sizes[0] <= before.Size() {
		t.Fatalf("journal synced at %d bytes, before its record was written (was %d)", rec.sizes[0], before.Size())
	}

	// A sync failure is returned and latches: the next Commit refuses.
	boom := errors.New("injected sync failure")
	rec.fail(boom)
	if err := f.Commit("rec2"); !errors.Is(err, boom) {
		t.Fatalf("Commit with failing sync = %v, want the injected failure", err)
	}
	rec.fail(nil)
	if err := f.Commit("rec3"); !errors.Is(err, boom) || !errors.Is(f.Err(), boom) {
		t.Fatalf("Commit after a failure = %v (Err %v), want the latched failure", err, f.Err())
	}
}

func TestAppendNeverSyncsAndCloseDoes(t *testing.T) {
	f, path := openFresh(t)
	rec := recordSyncs(t)
	for i := 0; i < 3; i++ {
		f.Append(i)
	}
	if n := rec.count(); n != 0 {
		t.Fatalf("Append synced %d times, want 0", n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 || rec.names[0] != "test.journal" {
		t.Fatalf("Close synced %v, want the journal once", rec.names)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, body, _ := Parse(data); len(body) != 3 {
		t.Fatalf("replayed %d appended records, want 3", len(body))
	}
	// A closed handle refuses further records and is never reopened.
	if err := f.Commit("late"); err == nil {
		t.Fatal("Commit on a closed journal succeeded")
	}
	if err := f.Replace(data); err == nil {
		t.Fatal("Replace on a closed journal succeeded")
	}
}

func TestCloseReportsSyncFailure(t *testing.T) {
	f, _ := openFresh(t)
	rec := recordSyncs(t)
	boom := errors.New("injected sync failure")
	rec.fail(boom)
	if err := f.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the injected failure", err)
	}
}

func TestReplaceReopensOnNewImage(t *testing.T) {
	f, path := openFresh(t)
	defer f.Close()
	f.Append("old")
	image, err := Image("h2", []string{"kept"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Replace(image); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("new"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ := Parse(data)
	if string(head) != `"h2"` || len(body) != 2 || string(body[0]) != `"kept"` || string(body[1]) != `"new"` {
		t.Fatalf("after Replace: header %q body %q", head, body)
	}
}

// assertUntouched checks that path still holds want and that no temporary
// file is left beside it.
func assertUntouched(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("target changed: %q (err %v), want %q", got, err, want)
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp")); len(left) != 0 {
		t.Fatalf("temporary files left behind: %v", left)
	}
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestWriteFileSyncsBeforeRename(t *testing.T) {
	rec := recordSyncs(t)
	path := filepath.Join(t.TempDir(), "art.json")
	if err := WriteFile(path, writeString("payload")); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 || !strings.HasPrefix(rec.names[0], "art.json.") ||
		!strings.HasSuffix(rec.names[0], ".tmp") || rec.sizes[0] != int64(len("payload")) {
		t.Fatalf("synced %v at sizes %v, want the full temporary file once", rec.names, rec.sizes)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", st.Mode().Perm())
	}
	assertUntouched(t, path, []byte("payload"))
}

func TestWriteFileFailureLeavesTargetUntouched(t *testing.T) {
	boom := errors.New("injected failure")
	t.Run("sync", func(t *testing.T) {
		rec := recordSyncs(t)
		path := filepath.Join(t.TempDir(), "target")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		rec.fail(boom)
		if err := WriteFile(path, writeString("new")); !errors.Is(err, boom) {
			t.Fatalf("WriteFile = %v, want the injected sync failure", err)
		}
		assertUntouched(t, path, []byte("old"))
	})
	t.Run("write", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "target")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := WriteFile(path, func(w io.Writer) error { return boom })
		if !errors.Is(err, boom) {
			t.Fatalf("WriteFile = %v, want the write failure", err)
		}
		assertUntouched(t, path, []byte("old"))
	})
	t.Run("rename", func(t *testing.T) {
		// A non-empty directory at the target makes the rename fail.
		path := filepath.Join(t.TempDir(), "target")
		if err := os.MkdirAll(filepath.Join(path, "keep"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, writeString("new")); err == nil {
			t.Fatal("WriteFile over a non-empty directory succeeded")
		}
		if st, err := os.Stat(filepath.Join(path, "keep")); err != nil || !st.IsDir() {
			t.Fatalf("target directory disturbed: %v", err)
		}
		if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp")); len(left) != 0 {
			t.Fatalf("temporary files left behind: %v", left)
		}
	})
}

func TestReplaceFailureLatches(t *testing.T) {
	f, path := openFresh(t)
	defer f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := recordSyncs(t)
	boom := errors.New("injected sync failure")
	rec.fail(boom)
	if err := f.Replace([]byte("garbage\n")); !errors.Is(err, boom) {
		t.Fatalf("Replace = %v, want the injected failure", err)
	}
	assertUntouched(t, path, before)
	rec.fail(nil)
	if err := f.Commit("after"); !errors.Is(err, boom) {
		t.Fatalf("Commit after a failed Replace = %v, want the latched failure", err)
	}
}

// FuzzJournalReplay feeds arbitrary bytes to Parse: it must never panic,
// every payload it returns must appear in the input framed exactly as
// Line frames it (a record that fails its checksum is never replayed),
// and an Image built from the input's pieces must parse back to them.
func FuzzJournalReplay(f *testing.F) {
	image, err := Image(map[string]any{"v": 1, "grid": 1e-12}, []map[string]any{{"op": "submit", "id": "j-1"}, {"op": "start", "attempt": 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(image)
	f.Add(image[:len(image)-5])
	f.Add(bytes.ToUpper(image))
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add(Line([]byte("{}")))
	f.Add([]byte("0000000000000000 \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		head, body, lines := Parse(data)
		if head == nil && (body != nil || lines != 0) {
			t.Fatalf("unverified header but %d payloads / %d lines returned", len(body), lines)
		}
		if len(body) > lines {
			t.Fatalf("%d payloads from %d lines", len(body), lines)
		}
		for _, p := range append([][]byte{head}, body...) {
			if p == nil {
				continue
			}
			framed := Line(p)
			if !bytes.Contains(data, framed[:len(framed)-1]) {
				t.Fatalf("payload %q does not occur framed in the input", p)
			}
		}

		// Round trip: the input's lines as string records, its first
		// line as the header.
		parts := strings.Split(string(data), "\n")
		img, err := Image(parts[0], parts[1:])
		if err != nil {
			t.Fatal(err)
		}
		head, body, lines = Parse(img)
		if !bytes.Equal(head, mustMarshal(t, parts[0])) || lines != len(parts)-1 || len(body) != lines {
			t.Fatalf("Image(%q, %d records) parsed as header %q, %d/%d records", parts[0], len(parts)-1, head, len(body), lines)
		}
		for i, p := range body {
			if want := mustMarshal(t, parts[i+1]); !bytes.Equal(p, want) {
				t.Fatalf("record %d = %q, want %q", i, p, want)
			}
		}
	})
}
