package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Store: st, MaxConcurrent: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, hs
}

func submit(t *testing.T, hs *httptest.Server, req SubmitRequest) (JobView, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	return submitBody(t, hs, body)
}

// submitBody posts a raw submission body.
func submitBody(t *testing.T, hs *httptest.Server, body []byte) (JobView, int) {
	t.Helper()
	resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, hs *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(hs.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, hs *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, hs, id)
		if v.State.terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

func fetchArtifact(t *testing.T, hs *httptest.Server, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(hs.URL + "/api/v1/jobs/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s: status %d", name, resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

// TestSubmitRunFetch is the happy path: submit s27, poll to done, fetch all
// three artifacts; resubmit and get the identical bytes from the cache.
func TestSubmitRunFetch(t *testing.T) {
	_, hs := newTestServer(t)

	req := SubmitRequest{Circuit: "s27", Config: JobConfig{LG: 200, Seed: 1}}
	v, code := submit(t, hs, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if v.Key == "" || v.ID == "" {
		t.Fatalf("submit response incomplete: %+v", v)
	}
	done := waitTerminal(t, hs, v.ID)
	if done.State != StateDone {
		t.Fatalf("job state %s (err %q)", done.State, done.Error)
	}
	if done.Cached {
		t.Error("first run reported cached")
	}
	wantArtifacts := []string{"generator.v", "netlist.bench", "result.json"}
	if fmt.Sprint(done.Artifacts) != fmt.Sprint(wantArtifacts) {
		t.Fatalf("artifacts = %v, want %v", done.Artifacts, wantArtifacts)
	}

	var res Result
	if err := json.Unmarshal(fetchArtifact(t, hs, v.ID, "result.json"), &res); err != nil {
		t.Fatal(err)
	}
	if res.Circuit != "s27" || res.Table6.Det == 0 || res.Generator.Gates == 0 {
		t.Errorf("implausible result: %+v", res)
	}
	gen := fetchArtifact(t, hs, v.ID, "generator.v")
	if !strings.Contains(string(gen), "module") {
		t.Error("generator.v does not look like Verilog")
	}
	netlist := fetchArtifact(t, hs, v.ID, "netlist.bench")
	if _, err := bench.Parse("roundtrip", bytes.NewReader(netlist)); err != nil {
		t.Errorf("netlist.bench does not re-parse: %v", err)
	}

	// Resubmit: same key, served from the store, byte-identical artifacts.
	// The legacy body still carries the retired process-sharding knob,
	// which the decoder must ignore without touching the key.
	plain, _ := json.Marshal(req)
	legacy := []byte(`{"circuit":"s27","config":{"lg":200,"seed":1},"shard_procs":2}`)
	for _, body := range [][]byte{plain, legacy} {
		v2, code := submitBody(t, hs, body)
		if code != http.StatusAccepted {
			t.Fatalf("resubmission %s: status %d", body, code)
		}
		if v2.Key != v.Key {
			t.Fatalf("resubmission %s: key %s != %s", body, v2.Key, v.Key)
		}
		done2 := waitTerminal(t, hs, v2.ID)
		if done2.State != StateDone || !done2.Cached {
			t.Fatalf("resubmission %s: state %s cached %v", body, done2.State, done2.Cached)
		}
		for _, name := range wantArtifacts {
			a := fetchArtifact(t, hs, v.ID, name)
			b := fetchArtifact(t, hs, v2.ID, name)
			if !bytes.Equal(a, b) {
				t.Errorf("resubmission %s: artifact %s differs between fetches", body, name)
			}
		}
	}
}

// TestSubmitNetlist uploads an inline .bench netlist instead of naming a
// built-in circuit, and checks that formatting does not fragment the cache.
func TestSubmitNetlist(t *testing.T) {
	_, hs := newTestServer(t)
	c, err := iscas.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	if err := bench.Write(&src, c); err != nil {
		t.Fatal(err)
	}

	req := SubmitRequest{Netlist: src.String(), Init: "x", Config: JobConfig{LG: 150, Seed: 9}}
	v, code := submit(t, hs, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitTerminal(t, hs, v.ID)
	if done.State != StateDone {
		t.Fatalf("job state %s (err %q)", done.State, done.Error)
	}

	// The same netlist with cosmetic changes hits the same key.
	req2 := req
	req2.Netlist = "# comment\n\n" + req.Netlist
	v2, _ := submit(t, hs, req2)
	if v2.Key != v.Key {
		t.Error("netlist formatting fragmented the cache key")
	}
}

// TestSubmitBodyLimit: the inline netlist of the largest built-in circuit
// fits under the submission body limit, and a body past the limit is a 413.
func TestSubmitBodyLimit(t *testing.T) {
	_, hs := newTestServer(t)
	var src bytes.Buffer
	if err := bench.Write(&src, iscas.MustLoad("s35932")); err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Netlist: src.String(), Config: JobConfig{LG: 100, Seed: 1, ATPGNoPodem: true, ATPGNoCompaction: true}}
	v, code := submit(t, hs, req)
	if code != http.StatusAccepted {
		t.Fatalf("s35932 inline submission: status %d, want 202", code)
	}
	// Acceptance is the point; don't compile s35932.
	creq, _ := http.NewRequest(http.MethodDelete, hs.URL+"/api/v1/jobs/"+v.ID, nil)
	if _, err := http.DefaultClient.Do(creq); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, hs, v.ID)

	req.Netlist = "# " + strings.Repeat("x", maxSubmitBytes) + "\n" + req.Netlist
	if _, code := submit(t, hs, req); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize submission: status %d, want 413", code)
	}
}

// TestSubmitValidation: malformed submissions are 400s, out-of-range
// configurations included — they are refused before any job exists, not
// run under a key of their own or failed mid-pipeline.
func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t)
	for name, req := range map[string]SubmitRequest{
		"empty":               {},
		"both":                {Circuit: "s27", Netlist: "INPUT(a)"},
		"unknown":             {Circuit: "sX"},
		"bad netlist":         {Netlist: "not a bench file"},
		"bad init":            {Circuit: "s27", Init: "q"},
		"bad model":           {Circuit: "s27", Config: JobConfig{FaultModel: "delay"}},
		"negative lg":         {Circuit: "s27", Config: JobConfig{LG: -5}},
		"huge lg":             {Circuit: "s27", Config: JobConfig{LG: 1 << 30}},
		"negative random len": {Circuit: "s298", Config: JobConfig{ATPGRandomLen: -1}},
		"huge random len":     {Circuit: "s298", Config: JobConfig{ATPGRandomLen: 1 << 30}},
		"negative windows":    {Circuit: "s27", Config: JobConfig{RandomWindows: -1}},
		"huge windows":        {Circuit: "s27", Config: JobConfig{RandomWindows: 1 << 30}},
	} {
		if _, code := submit(t, hs, req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}

// TestSubmitFaultModel: the fault model is job identity — a transition-model
// job gets its own store key, runs to done, and result.json echoes the model.
func TestSubmitFaultModel(t *testing.T) {
	_, hs := newTestServer(t)

	base := SubmitRequest{Circuit: "s27", Config: JobConfig{LG: 120, Seed: 3}}
	trans := base
	trans.Config.FaultModel = "transition"

	v1, _ := submit(t, hs, base)
	v2, _ := submit(t, hs, trans)
	if v1.Key == v2.Key {
		t.Fatal("fault model did not change the store key")
	}
	if done := waitTerminal(t, hs, v1.ID); done.State != StateDone {
		t.Fatalf("stuck-at job state %s (err %q)", done.State, done.Error)
	}
	if done := waitTerminal(t, hs, v2.ID); done.State != StateDone {
		t.Fatalf("transition job state %s (err %q)", done.State, done.Error)
	}

	var res Result
	if err := json.Unmarshal(fetchArtifact(t, hs, v2.ID, "result.json"), &res); err != nil {
		t.Fatal(err)
	}
	if res.Config.FaultModel != "transition" {
		t.Errorf("result.json fault model = %q, want %q", res.Config.FaultModel, "transition")
	}
	if res.Table6.Det == 0 {
		t.Errorf("transition run detected no faults: %+v", res.Table6)
	}

	// "stuck" is an alias of the default model: same canonical config, same key.
	alias := base
	alias.Config.FaultModel = "stuck"
	if v3, _ := submit(t, hs, alias); v3.Key != v1.Key {
		t.Errorf("alias %q fragmented the cache: key %s != %s", "stuck", v3.Key, v1.Key)
	}
}

// TestDuplicateLiveSubmission: an identical submission while the first job
// is still live returns the same job (200) instead of queuing a duplicate.
// This is the server's only per-key de-duplication, so the first job is one
// that cannot finish in between (the long s1423 compile of TestCancelJob).
func TestDuplicateLiveSubmission(t *testing.T) {
	_, hs := newTestServer(t)
	req := SubmitRequest{Circuit: "s1423", Config: JobConfig{LG: 2000, Seed: 1}}
	v1, code := submit(t, hs, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", code)
	}
	v2, code := submit(t, hs, req)
	if code != http.StatusOK || v2.ID != v1.ID {
		t.Fatalf("duplicate live submission: job %s status %d, want job %s status 200", v2.ID, code, v1.ID)
	}
	creq, _ := http.NewRequest(http.MethodDelete, hs.URL+"/api/v1/jobs/"+v1.ID, nil)
	if _, err := http.DefaultClient.Do(creq); err != nil {
		t.Fatal(err)
	}
	if done := waitTerminal(t, hs, v1.ID); done.State != StateCancelled {
		t.Fatalf("job state %s, want cancelled", done.State)
	}
}

// TestCancelJob cancels an in-flight compilation and checks the workers
// really backed out: the job reaches the cancelled state and the
// fsim.groups_cancelled counter advances — the acceptance criterion for
// returning pool workers on cancellation.
func TestCancelJob(t *testing.T) {
	_, hs := newTestServer(t)
	before := telemetry.Counters()

	// A deliberately long job: big LG on a mid-size circuit.
	req := SubmitRequest{Circuit: "s1423", Config: JobConfig{LG: 2000, Seed: 1}}
	v, code := submit(t, hs, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// Let it get into the pipeline, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for getJob(t, hs, v.ID).State == StateQueued && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	creq, _ := http.NewRequest(http.MethodDelete, hs.URL+"/api/v1/jobs/"+v.ID, nil)
	if _, err := http.DefaultClient.Do(creq); err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, hs, v.ID)
	if done.State != StateCancelled {
		// The job may legitimately have finished before the cancel landed,
		// but then this test measured nothing: fail loudly so flakiness is
		// visible rather than silent.
		t.Fatalf("job state %s, want cancelled", done.State)
	}
	d := telemetry.Counters().Sub(before)
	if got := d.Get(telemetry.CtrGroupsCancelled); got == 0 {
		t.Error("cancellation did not skip any fault groups (workers did not back out)")
	}

	// The key must not be poisoned: resubmitting compiles fresh.
	v2, _ := submit(t, hs, req)
	if v2.Key != v.Key {
		t.Fatalf("resubmission key changed")
	}
	if getJob(t, hs, v2.ID).State == StateFailed {
		t.Fatal("resubmission after cancel failed immediately (poisoned key)")
	}
	// Don't wait for the full s1423 compile; cancel it and let Shutdown drain.
	creq2, _ := http.NewRequest(http.MethodDelete, hs.URL+"/api/v1/jobs/"+v2.ID, nil)
	http.DefaultClient.Do(creq2)
	waitTerminal(t, hs, v2.ID)
}

// TestPanickingJobFails injects a pipeline that panics on its first call:
// that job must end failed, the server must keep serving, a resubmission of
// the same key must compute afresh (nothing was stored for the failed job),
// and a job on another key must complete.
func TestPanickingJobFails(t *testing.T) {
	var calls atomic.Int64
	runPipeline = func(c *circuit.Circuit, init logic.V, cfg expt.Config) (*expt.Run, error) {
		if calls.Add(1) == 1 {
			panic("injected pipeline fault")
		}
		return expt.RunPipeline(c, init, cfg)
	}
	// Registered before the server's own cleanups, so it runs after the
	// server has drained.
	t.Cleanup(func() { runPipeline = expt.RunPipeline })
	_, hs := newTestServer(t)

	req := SubmitRequest{Circuit: "s27", Config: JobConfig{LG: 100, Seed: 11}}
	v, code := submit(t, hs, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	failed := waitTerminal(t, hs, v.ID)
	if failed.State != StateFailed || !strings.Contains(failed.Error, "injected pipeline fault") {
		t.Fatalf("panicking job: state %s, error %q; want failed with the panic value", failed.State, failed.Error)
	}

	again, _ := submit(t, hs, req)
	if again.ID == v.ID || again.Key != v.Key {
		t.Fatalf("resubmission: id %s key %s, want a new job on key %s", again.ID, again.Key, v.Key)
	}
	if done := waitTerminal(t, hs, again.ID); done.State != StateDone || done.Cached {
		t.Fatalf("resubmission after panic: state %s cached %v, want a fresh done", done.State, done.Cached)
	}

	other, _ := submit(t, hs, SubmitRequest{Circuit: "s27", Config: JobConfig{LG: 100, Seed: 12}})
	if other.Key == v.Key {
		t.Fatal("second request shares the panicking job's key")
	}
	if done := waitTerminal(t, hs, other.ID); done.State != StateDone {
		t.Fatalf("job on another key: state %s (%s), want done", done.State, done.Error)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("pipeline ran %d times, want 3 (panic, recompute, other key)", got)
	}
}

// TestPoolPanicFailsJob injects pipelines whose fault simulation panics off
// the job's goroutine: once on a worker-pool goroutine (a fault with an
// out-of-range node id in the second fault group of a Workers=2 run), once
// on a speculation slot (the same fault in a candidate that fsim.Speculate
// evaluates ahead of an uncommitted earlier one). Each job must end failed
// with the panic, the process must survive, and the server must keep
// serving other jobs.
func TestPoolPanicFailsJob(t *testing.T) {
	big := iscas.MustLoad("s298")
	faults := append([]fault.Fault(nil), fault.CollapsedUniverse(big)[:3*fsim.GroupSize]...)
	faults[fsim.GroupSize+5].Node = circuit.NodeID(len(big.Nodes) + 7)
	seq := sim.RandomSequence(randutil.New(4), big.NumInputs(), 10)
	injections := []func(){
		func() {
			fsim.Run(big, seq, faults, fsim.Options{Init: logic.Zero, Workers: 2, SlabLanes: 1})
		},
		func() {
			n := 0
			fsim.Speculate(fsim.New(big), 2,
				func(int) (int, bool) { n++; return n - 1, n <= 3 },
				func(ws *fsim.Simulator, k int) *fsim.Outcome {
					fl := faults[:fsim.GroupSize] // the first group: all valid
					if k == 1 {
						fl = faults[fsim.GroupSize:]
					}
					return ws.Run(seq, fl, fsim.Options{Init: logic.Zero})
				},
				func(int) bool { return false })
		},
	}
	var calls atomic.Int64
	runPipeline = func(c *circuit.Circuit, init logic.V, cfg expt.Config) (*expt.Run, error) {
		if n := int(calls.Add(1)); n <= len(injections) {
			injections[n-1]()
		}
		return expt.RunPipeline(c, init, cfg)
	}
	t.Cleanup(func() { runPipeline = expt.RunPipeline })
	_, hs := newTestServer(t)

	for i, where := range []string{"fsim worker", "speculation slot"} {
		v, code := submit(t, hs, SubmitRequest{Circuit: "s27", Config: JobConfig{LG: 100, Seed: uint64(13 + i)}})
		if code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		failed := waitTerminal(t, hs, v.ID)
		if failed.State != StateFailed || !strings.Contains(failed.Error, "index out of range") {
			t.Fatalf("job with a panicking %s: state %s, error %q; want failed with the panic", where, failed.State, failed.Error)
		}
	}
	other, _ := submit(t, hs, SubmitRequest{Circuit: "s27", Config: JobConfig{LG: 100, Seed: 15}})
	if done := waitTerminal(t, hs, other.ID); done.State != StateDone {
		t.Fatalf("next job: state %s (%s), want done", done.State, done.Error)
	}
}

// TestEventsStream: the JSONL stream replays the full event log and closes
// at the terminal state; span events from the per-job telemetry recorder
// appear in it.
func TestEventsStream(t *testing.T) {
	_, hs := newTestServer(t)
	v, _ := submit(t, hs, SubmitRequest{Circuit: "s27", Config: JobConfig{LG: 150, Seed: 2}})
	resp, err := http.Get(hs.URL + "/api/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (gap or reorder)", i, ev.Seq)
		}
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("stream ended on %+v, want done state", last)
	}
	sawSpan := false
	for _, ev := range events {
		if ev.Type == "span" && strings.HasPrefix(ev.Span, "pipeline") {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Error("no pipeline span events in the stream")
	}
}

// TestShutdownDrains: Shutdown with a generous deadline waits for live jobs
// and later submissions are refused.
func TestShutdownDrains(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	v, _ := submit(t, hs, SubmitRequest{Circuit: "s27", Config: JobConfig{LG: 150, Seed: 3}})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := getJob(t, hs, v.ID); got.State != StateDone {
		t.Errorf("job not drained: %s", got.State)
	}
	if _, code := submit(t, hs, SubmitRequest{Circuit: "s27"}); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit status %d, want 503", code)
	}
}

// TestShutdownDeadlineCancels: a shutdown whose context expires cancels live
// jobs instead of waiting for them.
func TestShutdownDeadlineCancels(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	v, _ := submit(t, hs, SubmitRequest{Circuit: "s1423", Config: JobConfig{LG: 2000, Seed: 7}})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Log("job finished inside the deadline; cancellation path not exercised")
	}
	got := getJob(t, hs, v.ID)
	if !got.State.terminal() {
		t.Fatalf("job still live after Shutdown returned: %s", got.State)
	}
}

// TestResultMatchesDirectRun: the service's result.json reports the same
// Table 6 row as running the pipeline directly — the HTTP layer adds no
// nondeterminism — and echoes the canonical config in expt.Config's JSON
// encoding, byte for byte (identity fields only, zero values omitted).
func TestResultMatchesDirectRun(t *testing.T) {
	_, hs := newTestServer(t)
	cfg := expt.Config{LG: 200, Seed: 1}
	r, err := expt.RunCircuit("s27", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := expt.Table6(r)

	v, _ := submit(t, hs, SubmitRequest{Circuit: "s27", Config: JobConfig{LG: 200, Seed: 1}})
	done := waitTerminal(t, hs, v.ID)
	if done.State != StateDone {
		t.Fatalf("job state %s (err %q)", done.State, done.Error)
	}
	raw := fetchArtifact(t, hs, v.ID, "result.json")
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Table6 != want {
		t.Errorf("served Table6 %+v != direct %+v", res.Table6, want)
	}
	var echo struct {
		Config json.RawMessage `json:"config"`
	}
	if err := json.Unmarshal(raw, &echo); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, echo.Config); err != nil {
		t.Fatal(err)
	}
	if want := `{"lg":200,"seed":1,"fault_model":"stuck-at"}`; got.String() != want {
		t.Errorf("result.json config = %s, want %s", got.String(), want)
	}
}

// TestMiscEndpoints covers the small read-only endpoints and their error
// paths: health, job listing, store inventory, 404s, the artifact
// conflict on an unfinished job, and escaped "." / ".." artifact names.
func TestMiscEndpoints(t *testing.T) {
	srv, hs := newTestServer(t)

	resp, err := http.Get(hs.URL + "/api/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	if _, err := New(Options{}); err == nil {
		t.Error("New without a store succeeded")
	}

	for _, path := range []string{
		"/api/v1/jobs/job-9999",
		"/api/v1/jobs/job-9999/events",
		"/api/v1/jobs/job-9999/artifacts/result.json",
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	creq, _ := http.NewRequest(http.MethodDelete, hs.URL+"/api/v1/jobs/job-9999", nil)
	if resp, err := http.DefaultClient.Do(creq); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel of unknown job: %v %d", err, resp.StatusCode)
	}

	v, _ := submit(t, hs, SubmitRequest{Circuit: "s298", Config: JobConfig{LG: 400, Seed: 11}})
	// Artifacts of a live job conflict (unless it already finished).
	resp, err = http.Get(hs.URL + "/api/v1/jobs/" + v.ID + "/artifacts/result.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && !getJob(t, hs, v.ID).State.terminal() {
		t.Errorf("artifact of live job: status %d, want 409", resp.StatusCode)
	}
	done := waitTerminal(t, hs, v.ID)
	if done.State != StateDone {
		t.Fatalf("job state %s (%s)", done.State, done.Error)
	}
	// A finished job 404s on an unknown artifact name.
	resp, _ = http.Get(hs.URL + "/api/v1/jobs/" + v.ID + "/artifacts/nope.txt")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown artifact: status %d", resp.StatusCode)
	}
	// Escaped dot names reach the handler as "." and ".."; they name the
	// store's own directories, so they must be refused without echoing a
	// filesystem path.
	for _, name := range []string{"%2e", "%2e%2e", "%2E", "%2E%2E"} {
		resp, err := http.Get(hs.URL + "/api/v1/jobs/" + v.ID + "/artifacts/" + name)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("artifact %s: status %d, want 4xx", name, resp.StatusCode)
		}
		if strings.Contains(string(body), srv.opts.Store.Dir()) {
			t.Errorf("artifact %s: body leaks the store path: %s", name, body)
		}
	}

	// Job listing includes the job, in submission order.
	resp, err = http.Get(hs.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 1 || views[0].ID != v.ID {
		t.Errorf("job listing = %+v", views)
	}

	// Store inventory lists the published key.
	resp, err = http.Get(hs.URL + "/api/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	var inv struct {
		Keys  []string `json:"keys"`
		Count int      `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if inv.Count != 1 || len(inv.Keys) != 1 || inv.Keys[0] != v.Key {
		t.Errorf("store inventory = %+v", inv)
	}

	// Malformed JSON body is a 400.
	presp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", presp.StatusCode)
	}
}
