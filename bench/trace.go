package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files. Start and End are nanoseconds since the tracer was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil tracer
// records nothing, so untraced rounds pass nil and pay one nil check
// per call. query_mix records from two goroutines, hence the mutex.
type tracer struct {
	origin time.Time
	round  int

	mu    sync.Mutex
	spans []span // guarded by: mu
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: t.round, Name: name,
		Start: time.Since(t.origin).Nanoseconds()})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t != nil {
		t.mu.Lock()
		t.spans[id].End = time.Since(t.origin).Nanoseconds()
		t.mu.Unlock()
	}
}

// total sums the durations of the spans called name, in seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			ns += t.spans[i].End - t.spans[i].Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON at path and returns how many it
// wrote.
func (t *tracer) write(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	t.mu.Lock()
	n := len(t.spans)
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return n, os.WriteFile(path, data, 0o644)
}
