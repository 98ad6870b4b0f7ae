package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started. Key names the frame or query a request span
// served; Items lists the frame IDs of a backend batch, which is how a
// Classify span links to the request spans it answered.
type span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Name   string   `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Key    string   `json:"key,omitempty"`
	Items  []string `json:"items,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0   time.Time
	ids  atomic.Uint64
	mu   sync.Mutex
	sp   []span
	open atomic.Uint64 // the enclosing phase span new spans default to
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (0 when tracing is off).
func (t *tracer) add(s span) uint64 {
	if t == nil {
		return 0
	}
	s.ID = t.ids.Add(1)
	t.mu.Lock()
	t.sp = append(t.sp, s)
	t.mu.Unlock()
	return s.ID
}

// ns converts a wall-clock instant to the tracer's timeline.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// interval records [start, now) under name with the given parent.
func (t *tracer) interval(name string, parent uint64, start time.Time) uint64 {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Name: name, Start: t.ns(start), End: t.ns(time.Now())})
}

// phase runs fn inside a named span that spans recorded during fn take
// as their default parent; it returns fn's error.
func (t *tracer) phase(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := t.ids.Add(1)
	prev := t.open.Swap(id)
	start := time.Now()
	err := fn()
	t.open.Store(prev)
	t.mu.Lock()
	t.sp = append(t.sp, span{ID: id, Parent: prev, Name: name, Start: t.ns(start), End: t.ns(time.Now())})
	t.mu.Unlock()
	return err
}

// parent is the phase span currently open (0 when none or untraced).
func (t *tracer) parent() uint64 {
	if t == nil {
		return 0
	}
	return t.open.Load()
}

// spans returns a copy of everything recorded so far.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.sp...)
}

// write saves the spans as JSON lines to path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
