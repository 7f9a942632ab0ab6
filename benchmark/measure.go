package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fsim"
	"repro/internal/telemetry"
)

// A run sets its workload up in chunks before it measures: at least
// setupChunks chunks, and until its set-ups add up to setupSeconds. A chunk
// starts after a garbage collection and repeats the set-up until it has
// lasted setupChunkSeconds; setup_s is the median of the chunks' mean set-up
// times. A sub-millisecond set-up is too short to time alone, and the
// collection keeps one chunk's garbage out of the next chunk's time.
const (
	setupChunks       = 5
	setupSeconds      = 0.5
	setupChunkSeconds = 0.025
)

// maxSeconds bounds a run that keeps measuring past its time for want of
// samples (see workload.minSamples), so that it ends well inside the 180
// seconds a run may take.
const maxSeconds = 120

type instance interface {
	// round runs the workload's inputs once. tr is nil in untraced rounds.
	round(tr *tracer) []opResult
	close() error
}

// opResult is one operation of a round: a compile, a graded session or a
// served job.
type opResult struct {
	label string // names the inputs; equal labels must give equal records
	cell  string // expt.<circuit>.<model> or fsim.<circuit>.<model>
	class string // compile, grade, cold, hit, joined or rejected
	// latency is the op's wall time; for a served job, from submit to the
	// terminal event.
	latency time.Duration
	err     error
	// record is the op's checked output.
	record string
	// ctr and cpu are the counter and CPU deltas over a compile or grade
	// call, which runs alone, so the deltas are its own.
	ctr telemetry.Snapshot
	cpu time.Duration
	// phases are a traced compile's pipeline spans.
	phases []telemetry.PhaseStats
	// seqLen, omega and kept are a compile's |T|, |Ω| and |Ω| after
	// reverse-order pruning.
	seqLen, omega, kept int
	// steps are the client-observed parts of a served job: submit,
	// queue_wait, run, post_pipeline and fetch.
	steps map[string]time.Duration
}

type roundResult struct {
	traced bool
	wall   time.Duration
	cpu    time.Duration
	ctr    telemetry.Snapshot
	ops    []opResult
}

// tracer keeps every span of a traced round in memory: the benchmark's own
// spans around each call into the program, and the pipeline spans the
// program records into the telemetry.Recorder it is handed.
type tracer struct {
	rec  *telemetry.Recorder
	sink *memSink
}

func newTracer() *tracer {
	s := &memSink{}
	return &tracer{rec: telemetry.New(s), sink: s}
}

// recorder returns a fresh recorder feeding the tracer's sink, so that each
// call's per-phase totals are its own; nil on a nil tracer.
func (t *tracer) recorder() *telemetry.Recorder {
	if t == nil {
		return nil
	}
	return telemetry.New(t.sink)
}

// start opens one of the benchmark's own spans; nil on a nil tracer.
func (t *tracer) start(name string) *telemetry.Span {
	if t == nil {
		return nil
	}
	return t.rec.StartSpan(name)
}

// writeJSONL writes every kept span to path as JSON lines.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := telemetry.NewJSONLSink(f)
	t.sink.mu.Lock()
	for _, ev := range t.sink.events {
		sink.Record(ev)
	}
	t.sink.mu.Unlock()
	return sink.Close()
}

type memSink struct {
	mu     sync.Mutex
	events []telemetry.SpanEvent
}

func (s *memSink) Record(ev telemetry.SpanEvent) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// report is one run's result, as written to <out>/<workload>-seed<N>-trace<T>.json.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Host      hostInfo               `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Detail holds the numbers behind the metrics: sample counts, tail
	// percentiles and per-span seconds.
	Detail map[string]float64 `json:"detail"`
	// SetupS holds the mean set-up time of every set-up chunk, RoundS every
	// round time of the run.
	SetupS []float64 `json:"setup_chunk_s_samples"`
	RoundS []float64 `json:"round_s_samples"`

	// records maps op labels to their checked outputs (-update-expected).
	records map[string]string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type hostInfo struct {
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	GitDescribe   string `json:"git_describe"`
	DefaultKernel string `json:"default_kernel"`
	Workers       int    `json:"workers,omitempty"`
	Threads       int    `json:"threads,omitempty"`
	Seed          uint64 `json:"seed"`
}

func host(w *workload, seed uint64) hostInfo {
	return hostInfo{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GitDescribe:   gitDescribe(),
		DefaultKernel: fsim.KernelAuto.Resolve().String(),
		Workers:       w.workers,
		Threads:       w.threads,
		Seed:          seed,
	}
}

// gitDescribe names the commit under test. It asks git only when the current
// directory is itself a repository root, so that git never searches the
// directories above the checkout.
func gitDescribe() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "--git-dir=.git", "--work-tree=.", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown (git describe failed)"
	}
	return strings.TrimSpace(string(out))
}

// runOptions configure one measured run of one workload.
type runOptions struct {
	seed    uint64
	seconds float64 // 0 runs one round
	trace   bool
	// dir is a scratch directory for the run's files.
	dir string
	// expected maps op labels to their committed records; nil when the seed
	// has none.
	expected map[string]string
}

// measure runs one workload: set-up (see setupChunks), then rounds of the
// same inputs until o.seconds are spent and the workload's minSamples are
// pooled, at least one round, then the output checks. It starts another
// round while that round is expected to end no more than half a round past
// o.seconds, or while samples are short and maxSeconds are not spent. A
// traced run of a traced workload alternates untraced and traced rounds and
// runs at least one of each. Only a failing set-up is an error; a failing
// operation counts as failed.
func measure(w *workload, o runOptions) (*report, *tracer, error) {
	var inst instance
	// newInstance tears the last instance down, sets a new one up and
	// returns how long the set-up took.
	newInstance := func() (float64, error) {
		if inst != nil {
			err := inst.close()
			inst = nil
			if err != nil {
				return 0, fmt.Errorf("%s: tearing down: %w", w.name, err)
			}
		}
		t0 := time.Now()
		in, err := w.setup(o.seed, o.dir)
		if err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		inst = in
		return time.Since(t0).Seconds(), nil
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var chunks []float64
	setups := 0
	for total := 0.0; len(chunks) < setupChunks || total < setupSeconds; {
		runtime.GC()
		sum, n := 0.0, 0
		for sum < setupChunkSeconds {
			d, err := newInstance()
			if err != nil {
				return nil, nil, err
			}
			sum += d
			n++
		}
		chunks = append(chunks, sum/float64(n))
		setups += n
		total += sum
	}

	var tr *tracer
	alternate := o.trace && w.traced
	if alternate {
		tr = newTracer()
	}
	var rounds []*roundResult
	start := time.Now()
	for k := 0; ; k++ {
		if k > 0 {
			elapsed := time.Since(start).Seconds()
			last := rounds[k-1].wall.Seconds()
			spent := (!alternate || k >= 2) && elapsed+last/2 > o.seconds
			if spent && (shortOf(w, rounds) == "" || elapsed+last > maxSeconds) {
				break
			}
			if w.fresh {
				if _, err := newInstance(); err != nil {
					return nil, nil, err
				}
			}
		}
		traced := alternate && k%2 == 1
		var rt *tracer
		if traced {
			rt = tr
		}
		runtime.GC() // no round pays for the garbage of the set-ups or the round before
		ctr0, cpu0, t0 := telemetry.Counters(), cpuTime(), time.Now()
		ops := inst.round(rt)
		rounds = append(rounds, &roundResult{
			traced: traced,
			wall:   time.Since(t0),
			cpu:    cpuTime() - cpu0,
			ctr:    telemetry.Counters().Sub(ctr0),
			ops:    ops,
		})
	}

	rep := &report{
		Workload: w.name,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Trace:    o.trace,
		Host:     host(w, o.seed),
		SetupS:   chunks,
		Detail:   map[string]float64{"setups": float64(setups)},
		Metrics:  map[string]metricValue{},
	}
	for _, rr := range rounds {
		rep.RoundS = append(rep.RoundS, rr.wall.Seconds())
	}
	check(rep, rounds, o.expected)
	if short := shortOf(w, rounds); short != "" {
		rep.Failed++
		rep.Errors = append(rep.Errors, short)
		rep.Correct = false
	}
	defs, values := endToEnd, endToEndValues(rounds, chunks)
	if o.trace {
		defs, values = perLayer, layerValues(w, rounds)
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	details(rep, rounds)
	return rep, tr, nil
}

// shortOf names the first class of op of which the rounds pooled fewer
// successful samples than w.minSamples asks for, or returns "".
func shortOf(w *workload, rounds []*roundResult) string {
	for _, class := range sortedKeys(w.minSamples) {
		n := 0
		for _, rr := range rounds {
			for _, op := range rr.ops {
				if op.err == nil && op.class == class {
					n++
				}
			}
		}
		if n < w.minSamples[class] {
			return fmt.Sprintf("%d %s samples, fewer than the %d the metrics need", n, class, w.minSamples[class])
		}
	}
	return ""
}

// check verifies every op's output: it must not have failed, must equal the
// output of the same inputs in every other round and, where the seed has
// committed records, must equal those. A traced compile must also repeat its
// untraced twin's fault-simulation counts exactly, phase by phase.
func check(rep *report, rounds []*roundResult, expected map[string]string) {
	fail := func(format string, args ...any) {
		rep.Failed++
		if len(rep.Errors) < 20 {
			rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...))
		}
	}
	rep.records = map[string]string{}
	untraced := map[string]telemetry.Snapshot{}
	for _, rr := range rounds {
		for _, op := range rr.ops {
			if !rr.traced && op.class == "compile" {
				untraced[op.label] = op.ctr
			}
		}
	}
	for _, rr := range rounds {
		for _, op := range rr.ops {
			rep.Attempted++
			prev, seen := rep.records[op.label]
			switch {
			case op.err != nil:
				fail("%s: %v", op.label, op.err)
				continue
			case seen && prev != op.record:
				fail("%s: output differs from another round of the same inputs", op.label)
				continue
			}
			rep.records[op.label] = op.record
			if want, ok := expected[op.label]; expected != nil && (!ok || want != op.record) {
				fail("%s: output differs from testdata/expected.json", op.label)
				continue
			}
			if rr.traced && op.phases != nil {
				if err := countsRepeat(op, untraced[op.label]); err != nil {
					fail("%s: %v", op.label, err)
				}
			}
		}
	}
	for label := range expected {
		if _, ok := rep.records[label]; !ok {
			fail("%s: in testdata/expected.json but never run", label)
		}
	}
	rep.Correct = rep.Failed == 0
}

// countsRepeat checks that a traced compile's phases, summed, did exactly
// the fault-simulation work of the whole call, and that the call did exactly
// the work of its untraced twin.
func countsRepeat(op opResult, untraced telemetry.Snapshot) error {
	var evals, vectors int64
	for _, p := range op.phases {
		if parent(p.Span) == "pipeline" {
			evals += spanEvals(p.Counters)
			vectors += p.Counters["fsim.vectors"]
		}
	}
	call := [2]int64{snapEvals(op.ctr), op.ctr.Get(telemetry.CtrVectors)}
	twin := [2]int64{snapEvals(untraced), untraced.Get(telemetry.CtrVectors)}
	if [2]int64{evals, vectors} != call || call != twin {
		return fmt.Errorf("fsim counts do not repeat: phases %d evals/%d vectors, traced call %d/%d, untraced call %d/%d",
			evals, vectors, call[0], call[1], twin[0], twin[1])
	}
	return nil
}

func parent(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return ""
}

// spanEvals and snapEvals count effective gate evaluations, the same for
// every kernel: the event kernel's skipped gates are evaluations a dense pass
// would have made.
func spanEvals(c map[string]int64) int64 { return c["fsim.gate_evals"] + c["fsim.gates_skipped"] }

func snapEvals(s telemetry.Snapshot) int64 {
	return s.Get(telemetry.CtrGateEvals) + s.Get(telemetry.CtrGatesSkipped)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
