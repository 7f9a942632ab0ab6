package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/randutil"
	"repro/internal/serve"
	"repro/internal/store"
)

// serveSlots is the server's MaxConcurrent: one pipeline per core of the
// two-core reference host.
const serveSlots = 2

// requestTimeout bounds every request of a served job, so that a job that
// never finishes fails the run instead of hanging it.
const requestTimeout = 60 * time.Second

// serveSpec sizes the serve workload: every round drains a job mix drawn
// from the run's seed through a fresh server on an empty store, with a
// closed loop of clients, each submitting a job, waiting on its event stream
// and fetching its result.json before it submits the next.
type serveSpec struct {
	circuits  []string
	configs   int // cold configurations per circuit: pipeline seeds 1 to configs
	resubmits int // resubmissions of configurations submitted earlier
	lg        int // per-assignment sequence length (0 = the paper's 2000)
	clients   int
	// minSamples is how many cold and hit jobs a run pools at least.
	minSamples map[string]int
}

// serveJob is one submission. Submissions with equal labels have one store
// key, so their result.json must be byte-identical.
type serveJob struct {
	label string
	body  []byte
}

// schedule draws a round's job mix: every configuration once, shuffled, with
// the resubmissions spread evenly after the second, each picking one of the
// configurations submitted before the latest. So while one client waits on
// a compile the other mostly hits the store and moves on to the next
// compile, and both run slots stay busy; a resubmission whose compile is
// still running joins it.
//
// The configurations themselves are fixed, pipeline seeds 1 to s.configs of
// every circuit, so that every seed does the same compile work and draws
// only the order and the resubmissions. With drawn pipeline seeds the
// compile work of a round varied by 40% between run seeds (one drawn s400
// configuration took 5.9 s, seven times its neighbours), more than the
// machine's noise.
func (s serveSpec) schedule(rng *randutil.RNG) ([]serveJob, error) {
	var configs []serveJob
	for _, c := range s.circuits {
		for cs := uint64(1); cs <= uint64(s.configs); cs++ {
			body, err := json.Marshal(serve.SubmitRequest{Circuit: c, Config: serve.JobConfig{LG: s.lg, Seed: cs}})
			if err != nil {
				return nil, err
			}
			configs = append(configs, serveJob{label: fmt.Sprintf("%s/seed=%d", c, cs), body: body})
		}
	}
	order := rng.Perm(len(configs))
	jobs := make([]serveJob, 0, len(configs)+s.resubmits)
	for k, i := range order {
		jobs = append(jobs, configs[i])
		for k > 0 && len(jobs)-(k+1) < s.resubmits*k/(len(order)-1) {
			jobs = append(jobs, configs[order[rng.Intn(k)]])
		}
	}
	return jobs, nil
}

type serveInst struct {
	clients int
	jobs    []serveJob
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
}

// setup opens an empty store under dir and starts a server on loopback.
func (s serveSpec) setup(seed uint64, dir string) (instance, error) {
	jobs, err := s.schedule(randutil.New(seed))
	if err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	in := &serveInst{
		clients: s.clients,
		jobs:    jobs,
		dir:     storeDir,
		served:  make(chan error, 1),
		client: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxConnsPerHost: s.clients, MaxIdleConnsPerHost: s.clients},
		},
	}
	if err := in.start(); err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	return in, nil
}

func (in *serveInst) start() error {
	st, err := store.Open(in.dir)
	if err != nil {
		return err
	}
	if in.srv, err = serve.New(serve.Options{Store: st, MaxConcurrent: serveSlots, Workers: 1}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.base = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: in.srv}
	go func() { in.served <- in.hs.Serve(ln) }()
	return nil
}

// close stops the HTTP server and waits for it, drains the job server and
// deletes the store.
func (in *serveInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	in.client.CloseIdleConnections()
	err = errors.Join(err, in.srv.Shutdown(ctx), os.RemoveAll(in.dir))
	return err
}

// round drains the job mix with the closed loop of clients. Results are in
// schedule order.
func (in *serveInst) round(*tracer) []opResult {
	jobs := in.jobs
	out := make([]opResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < in.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = in.do(jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// do runs one job as a wbist serve caller does: submit, wait on the event
// stream for the terminal state, read the job's cached flag, fetch
// result.json. The latency runs from submit to the terminal event.
func (in *serveInst) do(j serveJob) opResult {
	res := opResult{label: j.label, steps: map[string]time.Duration{}}
	t0 := time.Now()
	var view serve.JobView
	status, err := in.call(http.MethodPost, "/api/v1/jobs", j.body, &view)
	res.steps["submit"] = time.Since(t0)
	switch {
	case err != nil:
		res.err = err
		return res
	case status == http.StatusServiceUnavailable:
		res.class = "rejected"
		res.err = errors.New("submission rejected with 503")
		return res
	case status == http.StatusOK:
		res.class = "joined" // an identical job was live: this one waits on it
	case status != http.StatusAccepted:
		res.err = fmt.Errorf("submit: HTTP %d", status)
		return res
	}

	st, err := in.events(view.ID)
	res.latency = st.end.Sub(t0)
	if err == nil && st.state != serve.StateDone {
		err = fmt.Errorf("job %s ended %s", view.ID, st.state)
	}
	if err == nil {
		_, err = in.call(http.MethodGet, "/api/v1/jobs/"+view.ID, nil, &view)
	}
	if err != nil {
		res.err = err
		return res
	}
	if res.class == "" {
		res.class = "cold"
		if view.Cached {
			res.class = "hit"
		}
	}
	if res.class == "cold" && !st.running.IsZero() && !st.pipeline.IsZero() {
		res.steps["queue_wait"] = st.running.Sub(t0)
		res.steps["run"] = st.pipeline.Sub(st.running)
		res.steps["post_pipeline"] = st.end.Sub(st.pipeline)
	}
	t1 := time.Now()
	var body bytes.Buffer
	status, err = in.call(http.MethodGet, "/api/v1/jobs/"+view.ID+"/artifacts/result.json", nil, &body)
	res.steps["fetch"] = time.Since(t1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result.json: HTTP %d", status)
	}
	res.err = err
	res.record = sha(body.String())
	return res
}

// call makes one request and decodes a JSON response into v, or copies the
// body into v when v is a *bytes.Buffer.
func (in *serveInst) call(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, in.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if buf, ok := v.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
	} else if resp.StatusCode < 300 {
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// streamTimes are the arrival times of a job's events on the client.
type streamTimes struct {
	running, pipeline, end time.Time
	state                  serve.State
}

// events follows a job's event stream until its terminal state.
func (in *serveInst) events(id string) (streamTimes, error) {
	var st streamTimes
	resp, err := in.client.Get(in.base + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		now := time.Now()
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return st, fmt.Errorf("events: %w", err)
		}
		switch {
		case ev.Type == "state" && ev.State == serve.StateRunning:
			st.running = now
		case ev.Type == "span" && ev.Span == "pipeline":
			st.pipeline = now
		case ev.Type == "state" && ev.State != serve.StateQueued:
			st.end, st.state = now, ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("events: %w", err)
	}
	if st.end.IsZero() {
		return st, errors.New("events: stream ended before the job did")
	}
	return st, nil
}
