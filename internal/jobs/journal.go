package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// The job journal is an append-only, checksummed record of every job
// transition, one record per line, in the internal/journal format shared
// with the synthesis cache: the first line is a header pinning the format
// version, and a record whose checksum or JSON does not verify is skipped
// at replay (a crash can only tear the final line; bit rot can only lose
// single transitions, and the replay degrades gracefully — see rebuild in
// manager.go). Every append is committed (fsynced) before Submit/Done is
// acknowledged: an acknowledged transition survives power loss.
//
// Record vocabulary (op → fields):
//
//	submit  job                      job admitted to the queue
//	start   id, attempt              worker began attempt N
//	done    id, artifact, aeps, sha  completed; result addressable
//	fail    id, attempt, reason,     attempt N failed; final=true is
//	        final                    terminal, otherwise a retry follows
//	cancel  id                       explicit cancellation
//	state   job, state, attempt...   compaction snapshot of one job
//
// Compaction rewrites the journal as header + one "state" record per
// retained job (journal.File.Replace) once the record count
// exceeds compactFactor × the live-job count.

// journalVersion pins the record schema; an unknown version is moved
// aside and a fresh journal started (jobs are not portable across
// foreign versions). v2 added the optional Params.Objective field; a v1
// journal is a strict subset (every record decodes with the field
// empty, which means "inherit the base objective"), so v1 journals
// replay in place — see journalVersionMin.
const journalVersion = 2

// journalVersionMin is the oldest header version replayed in place.
// Versions in [journalVersionMin, journalVersion] are forward-compatible:
// newer versions only added omitempty record fields whose zero values
// reproduce the old behavior byte-for-byte.
const journalVersionMin = 1

// journalName is the journal file name inside the data directory.
const journalName = "jobs.journal"

// compactFactor triggers compaction when the journal holds more than
// this many records per retained job (min compactMin records).
const (
	compactFactor = 6
	compactMin    = 256
)

type journalHeader struct {
	V int `json:"v"`
}

// record is one journal line. Op selects which fields are meaningful.
type record struct {
	Op      string `json:"op"`
	T       int64  `json:"t,omitempty"` // unix nanos, telemetry only
	ID      string `json:"id,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Final   bool   `json:"final,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Artifact/AEps/SHA ride on done (and state) records.
	Artifact string  `json:"artifact,omitempty"`
	AEps     float64 `json:"aeps,omitempty"`
	SHA      string  `json:"sha,omitempty"`
	// Job rides on submit and state records; State on state records.
	Job   *Job  `json:"job,omitempty"`
	State State `json:"state,omitempty"`
}

// jobJournal is the durable side of a Manager: an internal/journal file
// whose every append is committed (fsynced) before it is acknowledged.
type jobJournal struct {
	mu      sync.Mutex
	f       *journal.File
	records int // body records since last rewrite (live + superseded)
}

// openJournal opens (or creates) the journal under dir and returns the
// replayable records of the existing body. A missing file, an empty
// file, or a version-mismatched header starts fresh (the old journal is
// preserved as .old for post-mortems); torn or corrupt body lines are
// skipped.
func openJournal(dir string) (*jobJournal, []record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: create data dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("jobs: read journal: %w", err)
	}
	recs, ok := parseJournal(data)
	if len(data) > 0 && !ok {
		// Foreign or corrupt header: keep the bytes for inspection, but
		// never trust them as job state.
		if err := os.Rename(path, path+".old"); err != nil && !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("jobs: move aside bad journal: %w", err)
		}
	}
	f, err := journal.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: %w", err)
	}
	j := &jobJournal{f: f, records: len(recs)}
	if len(data) == 0 || !ok {
		if err := j.rewrite(nil); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("jobs: %w", err)
		}
	}
	return j, recs, nil
}

// parseJournal decodes journal bytes into verified records. ok reports
// whether the header verified and named a replayable version (current
// or a compatible predecessor); body lines that fail their checksum or
// JSON decode are skipped.
func parseJournal(data []byte) ([]record, bool) {
	head, body, _ := journal.Parse(data)
	var h journalHeader
	if head == nil || json.Unmarshal(head, &h) != nil || h.V < journalVersionMin || h.V > journalVersion {
		return nil, false
	}
	var recs []record
	for _, payload := range body {
		var rec record
		if json.Unmarshal(payload, &rec) != nil {
			continue // corrupt record: skip, keep replaying
		}
		recs = append(recs, rec)
	}
	return recs, true
}

// rewrite atomically replaces the journal with header + recs (fsynced
// before the rename) and reopens the append handle on the new file.
func (j *jobJournal) rewrite(recs []record) error {
	image, err := journal.Image(journalHeader{V: journalVersion}, recs)
	if err != nil {
		return j.f.Fail(err)
	}
	if err := j.f.Replace(image); err != nil {
		return err
	}
	j.records = len(recs)
	return nil
}

// append journals one record (checksummed line, write, fsync). The first
// failure latches (health turns unhealthy) and is returned to the
// caller so an acknowledgement is never sent for an undurable
// transition.
func (j *jobJournal) append(rec record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Err(); err != nil {
		return err
	}
	if err := faultinject.Fire("jobs.journal.append"); err != nil {
		return j.f.Fail(fmt.Errorf("jobs: append record: %w", err))
	}
	if err := j.f.Commit(rec); err != nil {
		return err
	}
	j.records++
	return nil
}

// compact rewrites the journal as the given records (one state record
// per job) when the body has outgrown the live set.
func (j *jobJournal) compact(recs []record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rewrite(recs)
}

// needsCompaction reports whether the body record count has outgrown
// the given live-job count.
func (j *jobJournal) needsCompaction(liveJobs int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	bound := compactFactor * liveJobs
	if bound < compactMin {
		bound = compactMin
	}
	return j.records > bound
}

// health returns the first persistence failure, or nil while the
// journal is durable.
func (j *jobJournal) health() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Err()
}

// close fsyncs and releases the journal file, reporting the first
// persistence failure encountered over the journal's lifetime.
func (j *jobJournal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
