package telemetry

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sync"
	"time"
)

// Recorder collects span events and fans them out to sinks. It always feeds
// an in-memory aggregator, so per-phase totals are available even without an
// explicit sink. A Recorder is safe for concurrent use; a nil *Recorder is a
// valid "telemetry off" recorder whose spans are nil and cost nothing.
type Recorder struct {
	mu       sync.Mutex
	sinks    []Sink
	agg      *Aggregator
	progress io.Writer
}

// New returns a recorder feeding the given sinks (none is fine: the built-in
// aggregator still accumulates per-phase totals).
func New(sinks ...Sink) *Recorder {
	return &Recorder{sinks: sinks, agg: NewAggregator()}
}

// SetProgress makes the recorder write a one-line progress message to w each
// time a span ends (the CLI's -progress flag).
func (r *Recorder) SetProgress(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.progress = w
	r.mu.Unlock()
}

// StartSpan opens a root span. On a nil recorder it returns a nil span, and
// every span method is a no-op on a nil span, so callers never branch.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return newSpan(r, "", name)
}

// Root returns a parent whose children are root spans of r; it records
// nothing itself and is never ended (nil on a nil recorder).
func (r *Recorder) Root() *Span {
	if r == nil {
		return nil
	}
	return &Span{rec: r}
}

// Phases returns the per-phase totals accumulated so far (first-seen order).
func (r *Recorder) Phases() []PhaseStats {
	if r == nil {
		return nil
	}
	return r.agg.Phases()
}

func (r *Recorder) emit(ev SpanEvent) {
	observeSpan(ev) // process-wide span-duration histograms (/metrics)
	r.mu.Lock()
	r.agg.Record(ev)
	for _, s := range r.sinks {
		s.Record(ev)
	}
	// The progress write stays under the lock so concurrent span completions
	// never interleave on (or race over) a non-thread-safe writer.
	if r.progress != nil {
		fmt.Fprintf(r.progress, "[telemetry] %-32s %10.3fs  %8.1f KB\n",
			ev.Span, ev.Duration().Seconds(), float64(ev.AllocBytes)/1024)
	}
	r.mu.Unlock()
}

// Span is one timed phase. Spans nest: Child opens a sub-phase whose path is
// parent/child. Ending a span computes its wall-clock duration, the heap
// bytes allocated while it was open, and the hot-path counter deltas it
// observed, and emits the event to the recorder's sinks. Spans from
// concurrent goroutines may share a recorder, but the counter deltas of
// overlapping spans then overlap too (counters are process-wide).
type Span struct {
	rec   *Recorder
	path  string
	start time.Time
	alloc uint64
	ctrs  Snapshot
}

func newSpan(r *Recorder, parentPath, name string) *Span {
	path := name
	if parentPath != "" {
		path = parentPath + "/" + name
	}
	return &Span{
		rec:   r,
		path:  path,
		start: time.Now(),
		alloc: heapAllocBytes(),
		ctrs:  Counters(),
	}
}

// Child opens a sub-span. It is valid on an already-ended parent (the parent
// only contributes its path), and on a nil span it returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return newSpan(s.rec, s.path, name)
}

// Path returns the span's full slash-separated path ("" on a nil span).
func (s *Span) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// End closes the span and emits its event. No-op on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.emit(SpanEvent{
		Span:       s.path,
		Start:      s.start,
		DurationNS: time.Since(s.start).Nanoseconds(),
		AllocBytes: heapAllocBytes() - s.alloc,
		Counters:   Counters().Sub(s.ctrs).Map(),
	})
}

// heapAllocBytes returns the process's cumulative heap allocation, via
// runtime/metrics (cheap, no stop-the-world).
func heapAllocBytes() uint64 {
	sample := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample[:])
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
