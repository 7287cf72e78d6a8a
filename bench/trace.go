package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
// Spans of one operation share Op; Parent is the ID of the enclosing span
// (0 for an operation's root). Times are nanoseconds since the tracer
// started.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; write dumps them at exit.
// The serving workload records from two client goroutines, hence the lock.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	ops    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newOp allocates an operation ID. Operation 0 is reserved for set-up.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(op, parent int, name string, fn func()) {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
}

// leafPerOp sums, for every operation in ops, the milliseconds spent in
// leaf spans (spans enclosing no other span) of each name, and returns one
// slice per name aligned with ops. Names that never occur in an operation
// contribute a zero for it.
func (t *tracer) leafPerOp(ops []int) map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	pos := make(map[int]int, len(ops))
	for i, op := range ops {
		pos[op] = i
	}
	parents := make(map[int]bool)
	for _, s := range t.spans {
		parents[s.Parent] = true
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		i, ok := pos[s.Op]
		if !ok || parents[s.ID] {
			continue
		}
		v := out[s.Name]
		if v == nil {
			v = make([]float64, len(ops))
			out[s.Name] = v
		}
		v[i] += float64(s.End-s.Start) / 1e6
	}
	return out
}

// durations returns the milliseconds of every span with the given name in
// operation op.
func (t *tracer) durations(op int, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Op == op && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("writing span: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("flushing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing span file: %w", err)
	}
	return nil
}
