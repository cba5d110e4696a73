// Package journal impersonates the real internal/journal append handle
// so the fsyncorder fixtures cover the package that owns every fsync.
package journal

import "os"

// Sync mirrors the real package's seam: an exported func-typed variable,
// classified by name.
var Sync = func(f *os.File) error { return f.Sync() }

type File struct {
	f *os.File
}

// The real Commit: write, sync through the seam, then ack.
func (j *File) Commit(line []byte) error {
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	if err := Sync(j.f); err != nil {
		return err
	}
	return nil
}

// A commit that acks without the sync loses the record on power cut.
func (j *File) commitNoSync(line []byte) error {
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return nil // want `j\.f written but not synced on this path`
}

// The real Append is void and never syncs: no ack to order against.
func (j *File) Append(line []byte) {
	_, _ = j.f.Write(line)
}
