package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/pipeline"
)

// store is the content-addressed artifact store: every completed
// synthesis lands as one pipeline.SynthesisArtifact file whose name is
// the hash of the canonical QASM plus the pipeline's synthesis key.
// A resubmitted circuit — or an M/CXWeight re-sweep of one — addresses
// the same file and becomes a Reselect instead of a full run; a result
// recomputed from the store after a restart is bit-identical to the one
// computed before it (the Reselect contract), which the manager verifies
// against the journaled result SHA.
type store struct {
	dir string
}

func openStore(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: create artifact dir: %w", err)
	}
	return &store{dir: dir}, nil
}

// artifactKey content-addresses a synthesis: the canonical QASM and the
// pipeline's resolved synthesis key (ε included, so a key hit reselects
// bit-identically to a fresh run at the request's own settings).
func artifactKey(canonicalQASM string, cfg pipeline.Config) string {
	h := sha256.New()
	io.WriteString(h, canonicalQASM)
	io.WriteString(h, "|"+cfg.SynthKey())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func (s *store) path(key string) string {
	return filepath.Join(s.dir, "art-"+key+".json")
}

// load returns the artifact stored under key, or (nil, nil) when the
// store has none (including when a stored file fails to decode — a
// corrupt artifact is a cache miss, never an error: the job simply
// re-synthesizes and overwrites it).
func (s *store) load(key string) (*pipeline.SynthesisArtifact, error) {
	f, err := os.Open(s.path(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: open artifact: %w", err)
	}
	defer f.Close()
	art, err := pipeline.LoadSynthesis(f)
	if err != nil {
		return nil, nil // corrupt artifact = miss; the caller re-synthesizes
	}
	return art, nil
}

// save writes the artifact under key through journal.WriteFile (unique
// tmp file, fsync, atomic rename) — a crash mid-save can never leave a
// torn artifact under a live key, and two concurrent misses of one
// circuit both succeed; the later rename wins with an equally intact
// artifact.
func (s *store) save(key string, art *pipeline.SynthesisArtifact) error {
	if err := faultinject.Fire("jobs.artifact.write"); err != nil {
		return fmt.Errorf("jobs: write artifact: %w", err)
	}
	if err := journal.WriteFile(s.path(key), art.Save); err != nil {
		return fmt.Errorf("jobs: save artifact: %w", err)
	}
	return nil
}
