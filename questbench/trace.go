package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one op share Op; Parent is the
// span that caused this one (-1 for an op's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the recorder's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Allocs counts heap objects the whole process allocated during the
	// span (every goroutine the layer fans out to included).
	Allocs uint64 `json:"allocs"`
}

// recorder keeps spans in memory until the run ends. It is used from the
// single goroutine that drives the ops.
type recorder struct {
	t0     time.Time
	spans  []span
	sample []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		t0:     time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (r *recorder) allocs() uint64 {
	metrics.Read(r.sample)
	if r.sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return r.sample[0].Value.Uint64()
}

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{
		ID:      len(r.spans),
		Parent:  parent,
		Op:      op,
		Name:    name,
		StartNS: int64(time.Since(r.t0)),
		Allocs:  r.allocs(),
	})
	return len(r.spans) - 1
}

// end closes the span and returns its duration and allocation count.
func (r *recorder) end(id int) (time.Duration, uint64) {
	s := &r.spans[id]
	s.EndNS = int64(time.Since(r.t0))
	s.Allocs = r.allocs() - s.Allocs
	return time.Duration(s.EndNS - s.StartNS), s.Allocs
}

// resetPeakRSS resets the peak resident set size the kernel tracks for a
// process ("self" or a pid), so the next readPeakRSS covers only what ran
// in between.
func resetPeakRSS(pid string) error {
	if err := os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// readPeakRSS returns a process's peak resident set size (VmHWM) since it
// started or since the last resetPeakRSS, in MB.
func readPeakRSS(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("read peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/%s/status", pid)
}

// add records a span measured elsewhere, such as from questd's job
// timestamps, and returns its ID.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{
		ID:      len(r.spans),
		Parent:  parent,
		Op:      op,
		Name:    name,
		StartNS: int64(start.Sub(r.t0)),
		EndNS:   int64(end.Sub(r.t0)),
	})
	return len(r.spans) - 1
}

// write stores the spans as JSON at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
