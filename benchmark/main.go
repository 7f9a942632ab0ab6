// Command wbist-bench is wbist's benchmark: four workloads, from BIST
// compiles down to the fault-simulation kernel and the job server, each
// timed from outside the program through its public entry points, with
// every output checked against committed digests.
//
// Build and run it from the repository root with benchmark/run.sh:
//
//	bash benchmark/run.sh -seed 1                  # all four workloads, untraced
//	bash benchmark/run.sh -seed 1 -trace           # every per-layer metric
//	bash benchmark/run.sh --workload serve-mix --seed 3 --seconds 25 --trace 0
//	bash benchmark/run.sh compare runsA runsB      # two sets of runs, verdicts
//	bash benchmark/run.sh -update-expected         # regenerate testdata/expected.json
//
// A run of one workload prints every metric by name with its unit and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}. It also
// writes its report, with a host block, to the -out directory.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultSeconds is how long a run measures unless -seconds says otherwise;
// BENCHMARK.json's run_seconds (the smoke test keeps the two equal).
const defaultSeconds = 25

// expectedPath is where -update-expected writes, relative to the repository
// root; the benchmark reads the copy embedded at build time.
const expectedPath = "benchmark/testdata/expected.json"

//go:embed testdata/expected.json
var expectedJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload       string
	seed           uint64
	seconds        float64
	trace          bool
	out            string
	updateExpected bool
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: wbist-bench compare <dir A> <dir B>")
			return 2
		}
		if err := compare(stdout, "BENCHMARK.json", args[1], args[2]); err != nil {
			fmt.Fprintln(stderr, "wbist-bench compare:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("wbist-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: all four, one child process each)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workloads' inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long each workload measures")
	fs.BoolVar(&o.trace, "trace", false, "print the per-layer metrics instead of the end-to-end ones (accepts -trace, -trace 0|1)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for reports, span traces and scratch files")
	fs.BoolVar(&o.updateExpected, "update-expected", false, "regenerate "+expectedPath+" for seeds 1 and 2")
	if err := fs.Parse(traceArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "wbist-bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	// FSIM_KERNEL silently changes the default kernel, the one under test.
	if v, ok := os.LookupEnv("FSIM_KERNEL"); ok {
		fmt.Fprintf(stderr, "wbist-bench: refusing to run with FSIM_KERNEL=%q set: it changes the default kernel under test\n", v)
		return 2
	}
	var err error
	switch {
	case o.updateExpected:
		err = updateExpected(stdout, o)
	case o.workload != "":
		err = runOne(stdout, o)
	default:
		err = runAll(stdout, stderr, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "wbist-bench:", err)
		return 1
	}
	return 0
}

// traceArgs lets -trace take a separate 0 or 1 ("--trace 0"), which the flag
// package allows only for non-boolean flags.
func traceArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

// runOne measures one workload in this process, writes its report (and, when
// traced, its spans) under o.out, and prints its metrics, ending with the
// result line.
func runOne(stdout io.Writer, o options) error {
	w := findWorkload(benchmarkWorkloads(), o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	expected, err := loadExpected(o.seed, w.name)
	if err != nil {
		return err
	}
	dir, err := scratchDir(o.out, w.name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep, tr, err := measure(w, runOptions{seed: o.seed, seconds: o.seconds, trace: o.trace, dir: dir, expected: expected})
	if err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, btoi(o.trace)))
	if err := writeJSON(base+".json", rep); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.writeJSONL(base + ".spans.jsonl"); err != nil {
			return err
		}
	}
	printReport(stdout, rep)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runAll runs every workload in a child process of its own, so that each
// max_rss_mb is that workload's, and writes the reports together with the
// host block to <out>/seed<N>-trace<T>.json.
func runAll(stdout, stderr io.Writer, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var reps []*report
	failed := false
	for _, w := range benchmarkWorkloads() {
		cmd := exec.Command(self,
			"-workload", w.name,
			"-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace="+strconv.FormatBool(o.trace),
			"-out", o.out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var rep report
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, btoi(o.trace)))
		if err := readJSON(path, &rep); err != nil {
			return err
		}
		failed = failed || !rep.Correct
		reps = append(reps, &rep)
	}
	path := filepath.Join(o.out, fmt.Sprintf("seed%d-trace%d.json", o.seed, btoi(o.trace)))
	all := struct {
		Host      hostInfo  `json:"host"`
		Workloads []*report `json:"workloads"`
	}{reps[0].Host, reps}
	all.Host.Workers, all.Host.Threads = 0, 0 // set per workload: in each report
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if failed {
		return errors.New("some outputs were wrong; see the errors above")
	}
	return nil
}

func printReport(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "# %s seed=%d trace=%v: %d ops, %d failed, %d rounds in %.3g s (host: %d CPUs, GOMAXPROCS %d, %s, kernel %s, workers %d, %s)\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Attempted, rep.Failed, len(rep.RoundS), rep.Seconds,
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.DefaultKernel, h.Workers, h.GitDescribe)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "# error: %s\n", e)
	}
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	for _, k := range sortedKeys(rep.Detail) {
		fmt.Fprintf(w, "# detail %-31s %14.6g\n", k, rep.Detail[k])
	}
}

// expectedFile maps seed → workload → op label → record.
type expectedFile map[string]map[string]map[string]string

// loadExpected returns the committed records of one workload and seed, or
// nil when the seed has none.
func loadExpected(seed uint64, workload string) (map[string]string, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	bySeed, ok := f[strconv.FormatUint(seed, 10)]
	if !ok {
		return nil, nil
	}
	recs, ok := bySeed[workload]
	if !ok {
		return nil, fmt.Errorf("testdata/expected.json: seed %d has no records for %s", seed, workload)
	}
	return recs, nil
}

// updateExpected runs one round of every workload on seeds 1 and 2 and
// writes their records to expectedPath.
func updateExpected(stdout io.Writer, o options) error {
	f := expectedFile{}
	for _, seed := range []uint64{1, 2} {
		key := strconv.FormatUint(seed, 10)
		f[key] = map[string]map[string]string{}
		for _, w := range benchmarkWorkloads() {
			dir, err := scratchDir(o.out, w.name)
			if err != nil {
				return err
			}
			rep, _, err := measure(w, runOptions{seed: seed, dir: dir})
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: %s", w.name, seed, strings.Join(rep.Errors, "; "))
			}
			f[key][w.name] = rep.records
			fmt.Fprintf(stdout, "%s seed %d: %d records\n", w.name, seed, len(rep.records))
		}
	}
	return writeJSON(expectedPath, f)
}

// scratchDir makes a fresh directory for one run's files under <out>/tmp.
func scratchDir(out, workload string) (string, error) {
	scratch := filepath.Join(out, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratch, workload+"-")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
