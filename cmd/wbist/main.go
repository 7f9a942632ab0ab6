// Command wbist is the main CLI for the weighted-test-sequence BIST
// reproduction. Subcommands:
//
//	wbist info <circuit>            circuit statistics
//	wbist run <circuit>             full pipeline, one Table 6 row + details
//	wbist table6 [circuit...]       the paper's Table 6 (default: all)
//	wbist obs <circuit>             one of the paper's Tables 7-16
//	wbist synth <circuit>           synthesize + verify the Figure 1 generator
//	wbist weights <circuit>         list the selected weight assignments
//	wbist verilog <circuit>         emit the circuit as structural Verilog
//	wbist verilog-gen <circuit>     emit the synthesized generator as Verilog
//	wbist selftest <circuit>        signature-based BIST session report
//	wbist report [flags] <circuit>  run report: coverage curve, detection
//	                                attribution, phase costs, testability
//	wbist faults <circuit>          fault dictionary (fault, detection time)
//	wbist testbench <circuit>       self-checking Verilog testbench for T
//	wbist metrics <circuit>         per-phase pipeline cost table
//	wbist serve [flags]             HTTP/JSON BIST-compilation service with a
//	                                content-addressed artifact cache
//
// The serve subcommand takes its own flags after the subcommand name:
// -addr (listen address, default localhost:8341), -store (artifact cache
// directory), -jobs (max concurrent compilations), -queue (queued
// submissions beyond the running ones) and -drain (graceful-shutdown
// deadline). SIGINT/SIGTERM drain in-flight jobs before exit; jobs still
// running at the -drain deadline are cancelled and stop within one
// fault-group pass.
//
// The report subcommand takes its own flags after the subcommand name:
// -json (machine-readable report), -trace <file> (also write the detection
// trace as JSONL, schema wbist-trace/v1), -from-trace <file> (ingest a trace
// instead of running the pipeline) and -from-metrics <file> (fold a -metrics
// JSONL file into the report).
//
// Common flags (before the subcommand): -lg, -seed, -random, -misr, -workers
// (fault-simulation worker goroutines, default GOMAXPROCS; results are
// bit-identical for any value), -kernel <auto|dense|slab>
// (fault-simulation gate-evaluation kernel; "auto" honors FSIM_KERNEL and
// defaults to the slab kernel, results are bit-identical for either
// kernel), -slab-lanes N (the slab kernel's fault-group batch width W; 0
// picks 8, capped so every worker gets a batch), -fault-model
// <stuck-at|transition|bridge> (the fault universe the pipeline targets;
// unlike the execution flags it changes every result bit and is part of the
// run's identity), plus the observability flags -metrics <file> (JSON-lines
// span export), -progress (per-phase progress on stderr) and -pprof <addr>
// (pprof/expvar server, with Prometheus text exposition under /metrics).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro"
	"repro/internal/tables"
)

var (
	flagLG        = flag.Int("lg", 0, "per-assignment sequence length L_G (0 = paper default 2000)")
	flagSeed      = flag.Uint64("seed", 1, "master random seed")
	flagRandom    = flag.Int("random", 0, "pseudo-random LFSR windows before weight selection")
	flagMISR      = flag.Int("misr", 16, "MISR width for the selftest subcommand")
	flagWorkers   = flag.Int("workers", runtime.GOMAXPROCS(0), "fault-simulation worker goroutines (results are identical for any value)")
	flagKernel    = flag.String("kernel", "auto", "fault-simulation kernel: auto (slab unless FSIM_KERNEL says otherwise), dense or slab (results are identical for any value)")
	flagSlabLanes = flag.Int("slab-lanes", 0, "slab kernel fault-group batch width W, at most 16 (0 = 8, capped so every worker gets a batch; results are identical for any value)")
	flagModel     = flag.String("fault-model", "", "fault model: stuck-at (default), transition or bridge (part of the run's identity, unlike -workers/-kernel)")
	flagMetrics   = flag.String("metrics", "", "write telemetry span events to this file as JSON lines")
	flagProgress  = flag.Bool("progress", false, "print per-phase progress to stderr")
	flagPprof     = flag.String("pprof", "", "serve net/http/pprof, expvar and Prometheus /metrics on this address")
)

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: wbist [flags] <info|run|table6|obs|synth|weights|verilog|verilog-gen|"+
			"selftest|report|faults|testbench|metrics|serve> [circuit ...]")
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	// SIGINT/SIGTERM cancel this context: long pipelines stop within one
	// fault-group pass, and the serve subcommand drains before exiting. A
	// second signal kills the process the usual way (the Stop in NotifyContext
	// restores default handling once ctx is cancelled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var debugSrv *wbist.DebugServer
	if *flagPprof != "" {
		srv, err := wbist.ServeDebug(*flagPprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wbist:", err)
			os.Exit(1)
		}
		debugSrv = srv
		fmt.Fprintf(os.Stderr, "wbist: pprof/expvar on http://%s/debug/, Prometheus on /metrics\n", srv.Addr())
		go func() {
			if err := <-srv.Err(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "wbist: debug server:", err)
			}
		}()
	}
	kernel, err := wbist.ParseKernel(*flagKernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbist:", err)
		os.Exit(2)
	}
	cfg := wbist.Config{LG: *flagLG, Seed: *flagSeed, RandomWindows: *flagRandom, Workers: *flagWorkers, Kernel: kernel, SlabLanes: *flagSlabLanes, FaultModel: *flagModel}
	cfg.Ctx = ctx
	rec, finish, err := setupTelemetry(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbist:", err)
		os.Exit(1)
	}
	cfg.Telemetry = rec
	switch args[0] {
	case "info":
		err = cmdInfo(args[1:])
	case "run":
		err = cmdRun(args[1:], cfg)
	case "table6":
		err = cmdTable6(args[1:], cfg)
	case "obs":
		err = cmdObs(args[1:], cfg)
	case "synth":
		err = cmdSynth(args[1:], cfg)
	case "weights":
		err = cmdWeights(args[1:], cfg)
	case "verilog":
		err = cmdVerilog(args[1:])
	case "verilog-gen":
		err = cmdVerilogGen(args[1:], cfg)
	case "selftest":
		err = cmdSelftest(args[1:], cfg)
	case "report":
		err = cmdReport(args[1:], cfg)
	case "faults":
		err = cmdFaults(args[1:], cfg)
	case "testbench":
		err = cmdTestbench(args[1:], cfg)
	case "metrics":
		err = cmdMetrics(args[1:], cfg)
	case "serve":
		err = cmdServe(ctx, args[1:], cfg)
	default:
		usage()
	}
	if ferr := finish(); err == nil {
		err = ferr
	}
	if debugSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		debugSrv.Shutdown(sctx)
		cancel()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbist:", err)
		os.Exit(1)
	}
}

// cmdServe runs the HTTP/JSON BIST-compilation service until the signal
// context is cancelled, then drains: new submissions are refused, in-flight
// jobs run to completion (or are cancelled at the -drain deadline, stopping
// within one fault-group pass), and both the job API and the -pprof debug
// server shut down gracefully.
func cmdServe(ctx context.Context, args []string, cfg wbist.Config) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8341", "job API listen address")
	dir := fs.String("store", defaultStoreDir(), "artifact store directory")
	jobs := fs.Int("jobs", 2, "maximum concurrently running compilations")
	queue := fs.Int("queue", 16, "queued submissions allowed beyond the running ones")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments, got %q", fs.Args())
	}
	st, err := wbist.OpenStore(*dir)
	if err != nil {
		return err
	}
	srv, err := wbist.NewJobServer(wbist.ServeOptions{
		Store:         st,
		MaxConcurrent: *jobs,
		QueueDepth:    *queue,
		Workers:       cfg.Workers,
		Kernel:        cfg.Kernel,
		SlabLanes:     cfg.SlabLanes,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	fmt.Fprintf(os.Stderr, "wbist: job API on http://%s/api/v1/, artifact store %s\n", ln.Addr(), *dir)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "wbist: shutting down (drain %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain jobs first so clients can keep polling during the drain, then
	// close the listener and wait for in-flight requests.
	jobErr := srv.Shutdown(dctx)
	httpErr := httpSrv.Shutdown(dctx)
	if jobErr != nil {
		fmt.Fprintf(os.Stderr, "wbist: drain deadline hit, cancelled in-flight jobs: %v\n", jobErr)
	}
	if httpErr != nil {
		return httpErr
	}
	fmt.Fprintln(os.Stderr, "wbist: shutdown complete")
	return nil
}

// defaultStoreDir places the artifact store under the user cache directory,
// falling back to a local path when none is defined.
func defaultStoreDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return base + "/wbist/store"
	}
	return ".wbist-store"
}

// setupTelemetry builds the recorder implied by the observability flags (and
// the metrics subcommand, which always needs one). The returned finish
// function flushes and closes the -metrics file.
func setupTelemetry(sub string) (*wbist.Recorder, func() error, error) {
	noop := func() error { return nil }
	if *flagMetrics == "" && !*flagProgress && sub != "metrics" {
		return nil, noop, nil
	}
	var sinks []wbist.MetricsSink
	finish := noop
	if *flagMetrics != "" {
		f, err := os.Create(*flagMetrics)
		if err != nil {
			return nil, noop, err
		}
		sink := wbist.NewJSONLSink(f)
		sinks = append(sinks, sink)
		finish = sink.Close
	}
	rec := wbist.NewRecorder(sinks...)
	if *flagProgress {
		rec.SetProgress(os.Stderr)
	}
	return rec, finish, nil
}

func one(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("expected exactly one circuit name, got %d", len(args))
	}
	return args[0], nil
}

func cmdInfo(args []string) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	c, err := wbist.LoadCircuit(name)
	if err != nil {
		return err
	}
	fmt.Println(c.Stats())
	for _, model := range wbist.FaultModelNames() {
		faults, err := wbist.FaultsFor(c, model)
		if err != nil {
			return err
		}
		fmt.Printf("collapsed %s faults: %d\n", model, len(faults))
	}
	return nil
}

func cmdRun(args []string, cfg wbist.Config) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	r, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		return err
	}
	row := wbist.Table6(r)
	fmt.Printf("circuit %s: |T|=%d, detects %d of %d collapsed faults\n",
		r.Name, row.Len, row.Det, r.TotalFaults)
	fmt.Printf("weight assignments: %d generated, %d after reverse-order simulation\n",
		len(r.Core.Omega), row.Seq)
	fmt.Printf("subsequences: %d (max length %d); FSMs: %d with %d outputs\n",
		row.Subs, row.MaxLen, row.FSMs, row.Outputs)
	fmt.Printf("coverage of T's faults by the weighted sequences: %.1f%%\n", 100*row.Coverage)
	fmt.Printf("candidate sequences fault-simulated: %d\n", r.Core.SimulatedSequences)
	return nil
}

func cmdTable6(args []string, cfg wbist.Config) error {
	names := args
	if len(names) == 0 {
		names = wbist.Table6Names()
	}
	t := tables.New("Table 6: Experimental results",
		"circuit", "len", "det", "seq", "subs", "len*", "num", "out")
	for _, name := range names {
		r, err := wbist.RunCircuit(name, cfg)
		if err != nil {
			return err
		}
		row := wbist.Table6(r)
		t.Add(row.Circuit, tables.Int(row.Len), tables.Int(row.Det),
			tables.Int(row.Seq), tables.Int(row.Subs), tables.Int(row.MaxLen),
			tables.Int(row.FSMs), tables.Int(row.Outputs))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("(len* = maximum subsequence length; num/out = FSM count / FSM outputs)")
	return nil
}

func cmdObs(args []string, cfg wbist.Config) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	r, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		return err
	}
	res := wbist.ObsExperiment(r)
	t := tables.New(fmt.Sprintf("Observation point insertion for %s", name),
		"seq", "sub", "len", "f.e.", "obs", "f.e.")
	for _, row := range res.FilteredRows(99) {
		t.Add(tables.Int(row.Seq), tables.Int(row.Subs), tables.Int(row.Len),
			tables.F1(row.FE), tables.Int(row.Obs), tables.F1(row.FEObs))
	}
	return t.Render(os.Stdout)
}

func cmdSynth(args []string, cfg wbist.Config) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	r, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		return err
	}
	g, err := wbist.Synthesize(r)
	if err != nil {
		return err
	}
	cut := r.Circuit.Stats()
	fmt.Printf("test generator for %s: %d gates, %d flip-flops, %d FSMs, %d assignments, L_G=%d\n",
		name, g.NumGates, g.NumDFFs, len(g.FSMs), g.NumAssignments, g.LG)
	fmt.Printf("CUT: %d gates, %d flip-flops -> area overhead %.1f%% (gates) %.1f%% (FFs)\n",
		cut.Gates, cut.DFFs,
		100*float64(g.NumGates)/float64(cut.Gates),
		100*float64(g.NumDFFs)/float64(max(cut.DFFs, 1)))
	return nil
}

func cmdWeights(args []string, cfg wbist.Config) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	r, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		return err
	}
	for j, a := range r.Compacted {
		fmt.Printf("Ω%d: %s\n", j+1, a)
	}
	return nil
}

func cmdVerilog(args []string) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	c, err := wbist.LoadCircuit(name)
	if err != nil {
		return err
	}
	return wbist.WriteVerilog(os.Stdout, c)
}

func cmdVerilogGen(args []string, cfg wbist.Config) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	r, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		return err
	}
	g, err := wbist.Synthesize(r)
	if err != nil {
		return err
	}
	return wbist.WriteVerilog(os.Stdout, g.Circuit)
}

func cmdSelftest(args []string, cfg wbist.Config) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	r, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		return err
	}
	rep, err := wbist.RunBISTSession(r, *flagMISR)
	if err != nil {
		return err
	}
	fmt.Printf("self-test session for %s: %d cycles, %d-bit MISR, golden signature %x\n",
		name, rep.SessionLength, *flagMISR, rep.GoldenSignature)
	fmt.Printf("targets %d | by compare %d | by signature %d | aliased %d | tainted %d\n",
		len(rep.ByCompare), rep.NumByCompare, rep.NumBySignature, rep.Aliased, rep.Tainted)
	return nil
}

func cmdReport(args []string, cfg wbist.Config) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the run report as JSON instead of text")
	traceOut := fs.String("trace", "", "also write the detection trace (JSONL, wbist-trace/v1) to this file")
	fromTrace := fs.String("from-trace", "", "build the report from this detection-trace file instead of running the pipeline")
	fromMetrics := fs.String("from-metrics", "", "fold this JSONL metrics file (the -metrics format) into the report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var phases []wbist.PhaseStats
	if *fromMetrics != "" {
		f, err := os.Open(*fromMetrics)
		if err != nil {
			return err
		}
		phases, err = wbist.ReadMetrics(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	var rt *wbist.RunTrace
	var r *wbist.Run
	if *fromTrace != "" {
		f, err := os.Open(*fromTrace)
		if err != nil {
			return err
		}
		rt, err = wbist.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		name, err := one(fs.Args())
		if err != nil {
			return err
		}
		r, err = wbist.RunCircuit(name, cfg)
		if err != nil {
			return err
		}
		rt, err = wbist.TraceRun(r)
		if err != nil {
			return err
		}
		if phases == nil {
			phases = r.Metrics
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		err = wbist.WriteTrace(f, rt)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	rep := wbist.BuildReport(rt, phases)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	wbist.RenderReport(os.Stdout, rep)
	if r == nil {
		return nil // trace-only ingestion: no run to derive testability from
	}
	fmt.Println()
	return renderTestability(r)
}

// renderTestability prints the circuit-centric sections of the report that
// need the live run (detection-time histogram, SCOAP summary).
func renderTestability(r *wbist.Run) error {
	st := r.Circuit.Stats()
	fmt.Println(st)
	fmt.Printf("collapsed faults: %d; detected by T: %d (%.1f%%); |T| = %d\n",
		r.TotalFaults, len(r.Targets),
		100*float64(len(r.Targets))/float64(max(r.TotalFaults, 1)), r.T.Len())

	// Detection-time histogram (eight buckets over |T|).
	const buckets = 8
	hist := make([]int, buckets)
	for _, u := range r.DetTimes {
		b := u * buckets / r.T.Len()
		if b >= buckets {
			b = buckets - 1
		}
		hist[b]++
	}
	t := tables.New("detection-time distribution", "time units", "faults")
	for b := 0; b < buckets; b++ {
		lo := b * r.T.Len() / buckets
		hi := (b+1)*r.T.Len()/buckets - 1
		t.Add(fmt.Sprintf("%d-%d", lo, hi), tables.Int(hist[b]))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	// SCOAP summary.
	m := wbist.Testability(r.Circuit, r.Init)
	var maxCC, maxCO int32
	unctl, unobs := 0, 0
	for id := range r.Circuit.Nodes {
		cc := m.CC0[id]
		if m.CC1[id] > cc {
			cc = m.CC1[id]
		}
		if cc >= 1<<30 {
			unctl++
		} else if cc > maxCC {
			maxCC = cc
		}
		if m.CO[id] >= 1<<30 {
			unobs++
		} else if m.CO[id] > maxCO {
			maxCO = m.CO[id]
		}
	}
	fmt.Printf("SCOAP: max finite controllability %d, max finite observability %d, "+
		"%d uncontrollable node(s), %d unobservable node(s)\n", maxCC, maxCO, unctl, unobs)
	return nil
}

func cmdFaults(args []string, cfg wbist.Config) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	r, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		return err
	}
	universe, err := wbist.FaultsFor(r.Circuit, r.Config.FaultModel)
	if err != nil {
		return err
	}
	t := tables.New(fmt.Sprintf("%s fault dictionary for %s under T", r.Config.FaultModel, name),
		"fault", "detected at")
	detected := map[string]int{}
	for i, f := range r.Targets {
		detected[f.String(r.Circuit)] = r.DetTimes[i]
	}
	for _, f := range universe {
		key := f.String(r.Circuit)
		if u, ok := detected[key]; ok {
			t.Add(key, tables.Int(u))
		} else {
			t.Add(key, "-")
		}
	}
	return t.Render(os.Stdout)
}

func cmdTestbench(args []string, cfg wbist.Config) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	r, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		return err
	}
	if r.Init != wbist.Zero {
		return fmt.Errorf("testbench requires a reset-to-0 circuit (%s initialises to %v)", name, r.Init)
	}
	if err := wbist.WriteVerilog(os.Stdout, r.Circuit); err != nil {
		return err
	}
	fmt.Println()
	return wbist.WriteVerilogTestbench(os.Stdout, r.Circuit, r.T, r.Init)
}

func cmdMetrics(args []string, cfg wbist.Config) error {
	name, err := one(args)
	if err != nil {
		return err
	}
	// A memoized run from an earlier command in this process would have
	// nothing left to measure; force a fresh pipeline.
	wbist.ClearRunCache()
	before := wbist.Counters()
	r, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		return err
	}
	t := tables.New(fmt.Sprintf("pipeline cost for %s", name),
		"phase", "runs", "wall", "alloc", "gate evals", "vectors", "repeat exits")
	for _, p := range r.Metrics {
		t.Add(p.Span, tables.Int(p.Count),
			fmt.Sprintf("%.3fs", p.Wall().Seconds()),
			fmt.Sprintf("%.1fMB", float64(p.AllocBytes)/(1<<20)),
			tables.Int(int(p.Counters["fsim.gate_evals"])),
			tables.Int(int(p.Counters["fsim.vectors"])),
			tables.Int(int(p.Counters["fsim.repeat_exits"])))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	delta := wbist.Counters().Sub(before)
	m := delta.Map()
	names := make([]string, 0, len(m))
	for counter := range m {
		names = append(names, counter)
	}
	sort.Strings(names)
	ct := tables.New("hot-path counters", "counter", "value")
	for _, counter := range names {
		ct.Add(counter, tables.Int(int(m[counter])))
	}
	return ct.Render(os.Stdout)
}
