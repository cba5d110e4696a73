// Package jobs impersonates a journal writer inside internal/jobs so the
// fsyncorder fixtures run against the package scope the check guards.
package jobs

import "os"

type journal struct {
	f *os.File
}

// syncJournal is a sync seam in the shape of journal.Sync: a func-typed
// variable, not a method, so the analyzer must classify it by name.
var syncJournal = func(f *os.File) error { return f.Sync() }

// The canonical append: write, sync through the seam, then ack.
func (j *journal) appendGood(payload []byte) error {
	if _, err := j.f.Write(payload); err != nil {
		return err
	}
	if err := syncJournal(j.f); err != nil {
		return err
	}
	return nil
}

// Acking without any sync loses the record on power cut.
func (j *journal) appendBad(payload []byte) error {
	if _, err := j.f.Write(payload); err != nil {
		return err
	}
	return nil // want `j\.f written but not synced on this path`
}

// One branch skips the sync: only that path is a finding.
func (j *journal) appendBranchy(payload []byte, quick bool) error {
	if _, err := j.f.Write(payload); err != nil {
		return err
	}
	if quick {
		return nil // want `j\.f written but not synced on this path`
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	return nil
}

// Direct method sync is a barrier too.
func (j *journal) appendMethodSync(payload []byte) error {
	if _, err := j.f.Write(payload); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	return nil
}

// A deferred sync runs before the caller observes the return.
func (j *journal) appendDeferredSync(payload []byte) (err error) {
	defer func() {
		if serr := syncJournal(j.f); err == nil {
			err = serr
		}
	}()
	if _, err := j.f.Write(payload); err != nil {
		return err
	}
	return nil
}

// Close does not imply durability: close(2) flushes nothing to disk.
func (j *journal) writeAndClose(payload []byte) error {
	if _, err := j.f.Write(payload); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	return nil // want `j\.f written but not synced on this path`
}

// Void functions are out of scope: best-effort writes (the real
// ucache.appendRecord) carry no ack to order the sync against.
func (j *journal) bestEffort(payload []byte) {
	_, _ = j.f.Write(payload)
}

// Error paths are not acks: returning the write error unflagged.
func (j *journal) propagatesError(payload []byte) error {
	_, err := j.f.Write(payload)
	return err
}

// WriteString dirties the file the same way Write does.
func (j *journal) appendString(line string) error {
	if _, err := j.f.WriteString(line); err != nil {
		return err
	}
	return nil // want `j\.f written but not synced on this path`
}
