package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAddAndSnapshot(t *testing.T) {
	before := Counters()
	Add(CtrGateEvals, 100)
	Add(CtrVectors, 7)
	Add(CtrGateEvals, 1)
	d := Counters().Sub(before)
	if got := d.Get(CtrGateEvals); got != 101 {
		t.Errorf("gate evals delta = %d, want 101", got)
	}
	if got := d.Get(CtrVectors); got != 7 {
		t.Errorf("vectors delta = %d, want 7", got)
	}
	m := d.Map()
	if m["fsim.gate_evals"] != 101 || m["fsim.vectors"] != 7 {
		t.Errorf("Map() = %v", m)
	}
	if _, ok := m[CtrBacktracks.Name()]; ok && d.Get(CtrBacktracks) == 0 {
		t.Errorf("Map() contains zero counter %q", CtrBacktracks.Name())
	}
}

func TestSpanNesting(t *testing.T) {
	rec := New()
	root := rec.StartSpan("pipeline")
	a := root.Child("atpg")
	a1 := a.Child("random")
	a1.End()
	a.End()
	c := root.Child("core")
	c.End()
	root.End()

	var paths []string
	for _, p := range rec.Phases() {
		paths = append(paths, p.Span)
	}
	want := []string{"pipeline/atpg/random", "pipeline/atpg", "pipeline/core", "pipeline"}
	if fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Errorf("phase order = %v, want %v", paths, want)
	}
	if got := root.Path(); got != "pipeline" {
		t.Errorf("root.Path() = %q", got)
	}
}

// TestRootParent: the children of Recorder.Root are root spans, and Root
// itself records nothing.
func TestRootParent(t *testing.T) {
	if (*Recorder)(nil).Root() != nil {
		t.Fatal("nil recorder: Root is not nil")
	}
	rec := New()
	rec.Root().Child("obs").End()
	ps := rec.Phases()
	if len(ps) != 1 || ps[0].Span != "obs" || ps[0].Count != 1 {
		t.Errorf("phases = %+v, want one root span obs", ps)
	}
}

func TestAggregatorSumsCountersAndRepeats(t *testing.T) {
	rec := New()
	for i := 0; i < 3; i++ {
		sp := rec.StartSpan("phase")
		Add(CtrCandidates, 2)
		sp.End()
	}
	phases := rec.Phases()
	if len(phases) != 1 {
		t.Fatalf("got %d phases, want 1", len(phases))
	}
	p := phases[0]
	if p.Count != 3 {
		t.Errorf("count = %d, want 3", p.Count)
	}
	// Counter deltas are process-wide, so parallel tests could inflate the
	// sum; it must be at least the 6 we added.
	if p.Counters["core.candidates_scored"] < 6 {
		t.Errorf("candidates sum = %d, want >= 6", p.Counters["core.candidates_scored"])
	}
	if p.WallNS < 0 {
		t.Errorf("negative wall time %d", p.WallNS)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	rec := New(sink)

	root := rec.StartSpan("pipeline")
	child := root.Child("atpg")
	Add(CtrVectors, 41)
	child.End()
	root.End()
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var events []SpanEvent
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Span != "pipeline/atpg" || events[1].Span != "pipeline" {
		t.Errorf("spans = %q, %q", events[0].Span, events[1].Span)
	}
	if events[0].Counters["fsim.vectors"] < 41 {
		t.Errorf("child vectors = %d, want >= 41", events[0].Counters["fsim.vectors"])
	}
	if events[0].Duration() < 0 || events[0].Start.IsZero() {
		t.Errorf("bad timing in %+v", events[0])
	}
}

type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONLSink(errWriter{err: io.ErrClosedPipe})
	sink.Record(SpanEvent{Span: "x"})
	sink.Record(SpanEvent{Span: "y"})
	if err := sink.Close(); err == nil {
		t.Error("Close() = nil, want sticky write error")
	}
}

// TestNilRecorderRecordsNothingAndAllocatesNothing is the guard for the
// telemetry-off hot path: spans from a nil recorder must be free.
func TestNilRecorderRecordsNothingAndAllocatesNothing(t *testing.T) {
	var rec *Recorder
	if got := rec.Phases(); got != nil {
		t.Errorf("nil recorder Phases() = %v, want nil", got)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.StartSpan("pipeline")
		c := sp.Child("atpg")
		if c.Path() != "" {
			t.Fatal("nil span has a path")
		}
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil recorder span lifecycle allocates %.1f times per run, want 0", allocs)
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	rec := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := rec.StartSpan("worker")
				sp.Child("inner").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	for _, p := range rec.Phases() {
		if p.Count != 400 {
			t.Errorf("%s count = %d, want 400", p.Span, p.Count)
		}
	}
}

func TestProgressWriter(t *testing.T) {
	var buf bytes.Buffer
	rec := New()
	rec.SetProgress(&buf)
	sp := rec.StartSpan("pipeline")
	sp.Child("atpg").End()
	sp.End()
	out := buf.String()
	if !strings.Contains(out, "pipeline/atpg") || !strings.Contains(out, "pipeline ") {
		t.Errorf("progress output missing spans:\n%s", out)
	}
}

// TestSetProgressConcurrentWithSpans flips the progress writer while spans
// complete on other goroutines; under -race this pins the recorder's locking
// around the progress sink.
func TestSetProgressConcurrentWithSpans(t *testing.T) {
	rec := New()
	var bufs [2]bytes.Buffer
	rec.SetProgress(&bufs[0])
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := rec.StartSpan("worker")
				sp.Child("inner").End()
				sp.End()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		rec.SetProgress(&bufs[i%2])
	}
	wg.Wait()
	rec.SetProgress(nil)
	for _, p := range rec.Phases() {
		if p.Count != 200 {
			t.Errorf("%s count = %d, want 200", p.Span, p.Count)
		}
	}
	if got := bufs[0].Len() + bufs[1].Len(); got == 0 {
		t.Error("no progress output written")
	}
}

func TestServeDebug(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(addr, path string) []byte {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		return body
	}
	// Two servers: the counters used to be published process-globally under
	// a sync.Once, which made every server after the first silently serve no
	// counters. They are per-mux now, so both must expose them.
	first, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	second, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("second ServeDebug: %v", err)
	}
	for i, srv := range []*DebugServer{first, second} {
		body := get(srv.Addr(), "/debug/vars")
		if !bytes.Contains(body, []byte("wbist_counters")) {
			t.Errorf("server %d: /debug/vars missing wbist_counters:\n%s", i, body)
		}
		if !json.Valid(body) {
			t.Errorf("server %d: /debug/vars is not valid JSON:\n%s", i, body)
		}
		metrics := get(srv.Addr(), "/metrics")
		if !bytes.Contains(metrics, []byte("wbist_fsim_gate_evals_total")) {
			t.Errorf("server %d: /metrics missing counter exposition:\n%s", i, metrics)
		}
	}
	if body := get(first.Addr(), "/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
	select {
	case err := <-first.Err():
		t.Fatalf("server reported error while still running: %v", err)
	default:
	}
}
