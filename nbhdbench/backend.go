package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"nbhd/internal/backend"
)

// timedBackend wraps a backend mounted on a gateway route and counts
// what the route asks of it: calls, items, time inside Classify, and the
// wall time during which at least one Classify call was running.
type timedBackend struct {
	inner backend.Backend
	tr    atomic.Pointer[tracer] // nil while untraced

	mu     sync.Mutex
	st     backendStats
	active int
	since  time.Time // start of the current busy interval
}

// backendStats is a snapshot of a timedBackend's counters.
type backendStats struct {
	Calls  int64
	Items  int64
	InCall time.Duration // summed over calls
	Busy   time.Duration // wall time with >= 1 call running
}

func (s backendStats) sub(o backendStats) backendStats {
	return backendStats{Calls: s.Calls - o.Calls, Items: s.Items - o.Items, InCall: s.InCall - o.InCall, Busy: s.Busy - o.Busy}
}

func (s backendStats) add(o backendStats) backendStats {
	return backendStats{Calls: s.Calls + o.Calls, Items: s.Items + o.Items, InCall: s.InCall + o.InCall, Busy: s.Busy + o.Busy}
}

func newTimedBackend(inner backend.Backend) *timedBackend {
	return &timedBackend{inner: inner}
}

func (b *timedBackend) Name() string                       { return b.inner.Name() }
func (b *timedBackend) Capabilities() backend.Capabilities { return b.inner.Capabilities() }

func (b *timedBackend) Classify(ctx context.Context, req backend.BatchRequest) (backend.BatchResult, error) {
	start := time.Now()
	b.mu.Lock()
	if b.active == 0 {
		b.since = start
	}
	b.active++
	b.mu.Unlock()

	res, err := b.inner.Classify(ctx, req)

	end := time.Now()
	b.mu.Lock()
	b.active--
	if b.active == 0 {
		b.st.Busy += end.Sub(b.since)
	}
	b.st.Calls++
	b.st.Items += int64(len(req.Items))
	b.st.InCall += end.Sub(start)
	b.mu.Unlock()
	if tr := b.tr.Load(); tr != nil {
		ids := make([]string, len(req.Items))
		for i, it := range req.Items {
			ids[i] = it.ID
		}
		tr.add(span{Parent: tr.parent(), Name: "backend.classify", Start: tr.ns(start), End: tr.ns(end), Items: ids})
	}
	return res, err
}

// stats snapshots the counters; a busy interval still open counts up to
// now.
func (b *timedBackend) stats() backendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.st
	if b.active > 0 {
		st.Busy += time.Since(b.since)
	}
	return st
}
