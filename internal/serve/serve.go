// Package serve exposes the BIST-compilation pipeline as an HTTP/JSON job
// service. A client submits a circuit (a named ISCAS benchmark or an inline
// .bench netlist) plus an experiment configuration; the server canonicalizes
// the submission into a content-addressed store key, runs the pipeline at
// most once per key, and serves the resulting artifacts (result.json,
// generator.v, netlist.bench) from the store on every later submission.
//
// Jobs are cancellable: the job's context is threaded through every pipeline
// stage down to the fault simulator's worker pool (see internal/fsim), so a
// DELETE — or server shutdown past its drain deadline — stops the job within
// one fault-group pass and returns its workers to the pool, observable as
// the fsim.groups_cancelled telemetry counter.
//
// Progress is streamed per job: each job runs under its own telemetry
// recorder whose sink converts completed phase spans into job events,
// buffered for polling (GET /api/v1/jobs/{id}) and streamed as JSON lines
// (GET /api/v1/jobs/{id}/events).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/expt"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/verilog"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Options configure a Server. The zero value is usable.
type Options struct {
	// Store is the artifact cache; required.
	Store *store.Store
	// MaxConcurrent bounds simultaneously running pipelines (default 2).
	MaxConcurrent int
	// QueueDepth bounds jobs waiting behind the running ones (default 16);
	// submissions beyond it are rejected with 503.
	QueueDepth int
	// Workers is the per-job fault-simulation worker count (0 = sequential).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 2
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 16
	}
	return o
}

// SubmitRequest is the POST /api/v1/jobs body. Exactly one of Circuit and
// Netlist must be set.
type SubmitRequest struct {
	// Circuit names a built-in benchmark (see iscas.Names).
	Circuit string `json:"circuit,omitempty"`
	// Netlist is inline .bench source for a custom circuit.
	Netlist string `json:"netlist,omitempty"`
	// Init is the flip-flop initialisation: "0" (reset) or "x" (unknown).
	// Empty selects the circuit's conventional value (x for the verbatim
	// s27, 0 otherwise).
	Init string `json:"init,omitempty"`
	// Config carries the experiment options in expt.Config's JSON
	// encoding, which names exactly the identity fields; zero values select
	// the paper's defaults. Workers, telemetry and the context are server
	// policy and cannot be set from the wire.
	Config expt.Config `json:"config"`
}

// JobConfig names SubmitRequest.Config's type for clients that build
// requests in Go; it is expt.Config itself.
type JobConfig = expt.Config

// Event is one entry of a job's progress log, delivered by polling and by
// the JSONL stream. Type "state" marks lifecycle transitions; type "span"
// carries one completed telemetry phase span.
type Event struct {
	Seq        int              `json:"seq"`
	Type       string           `json:"type"`
	State      State            `json:"state,omitempty"`
	Span       string           `json:"span,omitempty"`
	DurationNS int64            `json:"duration_ns,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// JobView is the JSON representation of a job.
type JobView struct {
	ID        string    `json:"id"`
	Key       string    `json:"key"`
	Circuit   string    `json:"circuit"`
	State     State     `json:"state"`
	Cached    bool      `json:"cached"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Events    int       `json:"events"`
	Artifacts []string  `json:"artifacts,omitempty"`
}

// job is the server-side job record.
type job struct {
	id      string
	key     string
	circuit *circuit.Circuit
	name    string
	netlist []byte // canonical .bench bytes
	init    logic.V
	cfg     expt.Config // canonical, identity fields only

	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	cached    bool
	err       error
	submitted time.Time
	events    []Event
	subs      map[chan Event]struct{}
	artifacts []string
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Key:       j.key,
		Circuit:   j.name,
		State:     j.state,
		Cached:    j.cached,
		Submitted: j.submitted,
		Events:    len(j.events),
		Artifacts: j.artifacts,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// emit appends an event and wakes streaming subscribers. Slow subscribers
// never block the pipeline: the channel is buffered and a full buffer drops
// the wakeup (the subscriber catches up from the replay log).
func (j *job) emit(ev Event) {
	j.mu.Lock()
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// setState transitions the job and logs the transition as an event.
func (j *job) setState(s State, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return // cancellation and completion can race; first transition wins
	}
	j.state = s
	j.err = err
	j.mu.Unlock()
	j.emit(Event{Type: "state", State: s})
}

func (j *job) snapshotEvents() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// jobSink adapts a job's event log to telemetry.Sink: every completed phase
// span becomes one "span" event.
type jobSink struct{ j *job }

func (s jobSink) Record(ev telemetry.SpanEvent) {
	s.j.emit(Event{
		Type:       "span",
		Span:       ev.Span,
		DurationNS: ev.DurationNS,
		Counters:   ev.Counters,
	})
}

// Server is the HTTP job service. It implements http.Handler.
type Server struct {
	opts Options
	st   *store.Store
	mux  *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	sem        chan struct{}
	wg         sync.WaitGroup

	mu     sync.Mutex
	closed bool
	seq    int
	jobs   map[string]*job
	order  []string
	byKey  map[string]*job // live job per store key (submission dedup)
}

// New builds a Server over the given artifact store.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Store == nil {
		return nil, errors.New("serve: Options.Store is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		st:         opts.Store,
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, opts.MaxConcurrent),
		jobs:       make(map[string]*job),
		byKey:      make(map[string]*job),
	}
	s.mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /api/v1/store", s.handleStoreList)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown stops admitting jobs and drains the in-flight ones. If ctx
// expires before the drain completes, every live job is cancelled (the
// pipeline stops within one fault-group pass) and the remaining drain is
// awaited before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // cancels every job context derived from baseCtx
		<-done
		return ctx.Err()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// resolveSubmission turns a request into (circuit, canonical netlist, init,
// canonical config) or an error suitable for a 400.
func resolveSubmission(req SubmitRequest) (*circuit.Circuit, []byte, logic.V, expt.Config, error) {
	var c *circuit.Circuit
	var err error
	switch {
	case req.Circuit != "" && req.Netlist != "":
		return nil, nil, 0, expt.Config{}, errors.New("set exactly one of circuit and netlist")
	case req.Circuit != "":
		c, err = iscas.Load(req.Circuit)
		if err != nil {
			return nil, nil, 0, expt.Config{}, err
		}
	case req.Netlist != "":
		c, err = bench.Parse("uploaded", strings.NewReader(req.Netlist))
		if err != nil {
			return nil, nil, 0, expt.Config{}, err
		}
	default:
		return nil, nil, 0, expt.Config{}, errors.New("set exactly one of circuit and netlist")
	}
	var canon bytes.Buffer
	if err := bench.Write(&canon, c); err != nil {
		return nil, nil, 0, expt.Config{}, err
	}
	init := expt.InitFor(c.Name)
	switch strings.ToLower(req.Init) {
	case "":
	case "0", "zero":
		init = logic.Zero
	case "x", "unknown":
		init = logic.X
	default:
		return nil, nil, 0, expt.Config{}, fmt.Errorf("init must be %q or %q, got %q", "0", "x", req.Init)
	}
	cfg := expt.CanonicalConfig(req.Circuit, req.Config)
	if err := cfg.Validate(); err != nil {
		return nil, nil, 0, expt.Config{}, err
	}
	return c, canon.Bytes(), init, cfg, nil
}

// maxSubmitBytes bounds a submission body. The JSON-encoded .bench source of
// the largest built-in circuit, s35932, is about 0.5 MB.
const maxSubmitBytes = 4 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	c, netlist, init, cfg, err := resolveSubmission(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := store.Key(netlist, init, cfg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	// An identical live submission is the same job: return it instead of
	// queuing a duplicate. This is the server's only per-key de-duplication:
	// the job computes its key at most once and shares its progress stream.
	if live, ok := s.byKey[key]; ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, live.view())
		return
	}
	live := 0
	for _, j := range s.jobs {
		if !j.view().State.terminal() {
			live++
		}
	}
	if live >= s.opts.MaxConcurrent+s.opts.QueueDepth {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "queue full (%d live jobs)", live)
		return
	}
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:        fmt.Sprintf("job-%04d", s.seq),
		key:       key,
		circuit:   c,
		name:      c.Name,
		netlist:   netlist,
		init:      init,
		cfg:       cfg,
		cancel:    cancel,
		state:     StateQueued,
		submitted: time.Now(),
		subs:      make(map[chan Event]struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byKey[key] = j
	s.wg.Add(1)
	s.mu.Unlock()

	j.emit(Event{Type: "state", State: StateQueued})
	go s.runJob(ctx, j)

	writeJSON(w, http.StatusAccepted, j.view())
}

// runPipeline indirects expt.RunPipeline so tests can inject a panicking
// pipeline.
var runPipeline = expt.RunPipeline

// runJob executes one job: acquire a run slot, run the pipeline, publish its
// artifacts to the store and the terminal state. byKey keeps every other
// submission of the key off the pipeline meanwhile; its entry is dropped
// whatever the outcome.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.wg.Done()
	defer func() {
		j.cancel()
		s.mu.Lock()
		if s.byKey[j.key] == j {
			delete(s.byKey, j.key)
		}
		s.mu.Unlock()
	}()

	// A store hit needs no run slot: answer immediately.
	if artifacts, ok, err := s.st.Get(j.key); err == nil && ok {
		j.finishFromArtifacts(artifacts, true)
		return
	}

	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		j.setState(StateCancelled, context.Cause(ctx))
		return
	}
	defer func() { <-s.sem }()
	if ctx.Err() != nil {
		j.setState(StateCancelled, context.Cause(ctx))
		return
	}
	j.setState(StateRunning, nil)

	artifacts, err := s.compile(ctx, j)
	if err == nil {
		err = s.st.Put(j.key, artifacts)
	}
	switch {
	case err == nil:
		j.finishFromArtifacts(artifacts, false)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.setState(StateCancelled, err)
	default:
		j.setState(StateFailed, err)
	}
}

// compile runs the job's pipeline and renders its artifacts. A panic fails
// this job only: nothing reaches the store, so a later submission of the
// key recomputes.
func (s *Server) compile(ctx context.Context, j *job) (artifacts map[string][]byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			artifacts, err = nil, fmt.Errorf("pipeline panicked: %v", p)
		}
	}()
	cfg := j.cfg
	cfg.Ctx = ctx
	cfg.Workers = s.opts.Workers
	cfg.Telemetry = telemetry.New(jobSink{j})
	r, err := runPipeline(j.circuit, j.init, cfg)
	if err != nil {
		return nil, err
	}
	return buildArtifacts(r, j.netlist)
}

func (j *job) finishFromArtifacts(artifacts map[string][]byte, cached bool) {
	names := make([]string, 0, len(artifacts))
	for name := range artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	j.mu.Lock()
	j.artifacts = names
	j.cached = cached
	j.mu.Unlock()
	j.setState(StateDone, nil)
}

// Result is the result.json artifact schema: the paper's Table 6 row for
// the compiled circuit plus the generator accounting.
type Result struct {
	Circuit   string         `json:"circuit"`
	Init      string         `json:"init"`
	Config    expt.Config    `json:"config"`
	Table6    expt.Table6Row `json:"table6"`
	Generator struct {
		Gates       int `json:"gates"`
		DFFs        int `json:"dffs"`
		FSMs        int `json:"fsms"`
		Assignments int `json:"assignments"`
		LG          int `json:"lg"`
	} `json:"generator"`
}

// buildArtifacts renders a completed run into the store's artifact set.
func buildArtifacts(r *expt.Run, netlist []byte) (map[string][]byte, error) {
	g, err := expt.SynthesizeGenerator(r)
	if err != nil {
		return nil, fmt.Errorf("synthesizing generator: %w", err)
	}
	var gen bytes.Buffer
	if err := verilog.Write(&gen, g.Circuit); err != nil {
		return nil, fmt.Errorf("rendering generator: %w", err)
	}
	res := Result{
		Circuit: r.Name,
		Init:    r.Init.String(),
		Config:  r.Config,
		Table6:  expt.Table6(r),
	}
	res.Generator.Gates = g.NumGates
	res.Generator.DFFs = g.NumDFFs
	res.Generator.FSMs = len(g.FSMs)
	res.Generator.Assignments = g.NumAssignments
	res.Generator.LG = g.LG
	rj, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"result.json":   append(rj, '\n'),
		"generator.v":   gen.Bytes(),
		"netlist.bench": netlist,
	}, nil
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if j.cancel != nil {
		j.cancel()
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleEvents streams the job's event log as JSON lines: first the replay
// of everything so far, then live events until the job reaches a terminal
// state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	ch := make(chan Event, 64)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}()

	next := 0
	for {
		for _, ev := range j.snapshotEvents()[next:] {
			enc.Encode(ev)
			next = ev.Seq + 1
			if ev.Type == "state" && ev.State.terminal() {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-ch:
			// Wakeup only; the replay loop above reads from the log, so
			// dropped wakeups on a full channel lose nothing.
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if !j.view().State.terminal() {
		writeErr(w, http.StatusConflict, "job is not finished")
		return
	}
	name := r.PathValue("name")
	data, ok, err := s.st.GetArtifact(j.key, name)
	if errors.Is(err, store.ErrInvalidName) {
		writeErr(w, http.StatusBadRequest, "invalid artifact name %q", name)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "no artifact %q", name)
		return
	}
	switch {
	case strings.HasSuffix(name, ".json"):
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Write(data)
}

func (s *Server) handleStoreList(w http.ResponseWriter, r *http.Request) {
	keys, err := s.st.List()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"keys": keys, "count": len(keys)})
}
