package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// gradeSpec sizes the grade workload: every round grades one weighted BIST
// session per circuit, drawn from the run's seed, by one fault simulation
// per fault model.
type gradeSpec struct {
	sessions []sessionSpec
	models   []string
	workers  int
}

// sessionSpec is a session of `assignments` weighted windows of lg vectors.
type sessionSpec struct {
	circuit     string
	assignments int
	lg          int
}

type gradeOp struct {
	label, cell string
	c           *circuit.Circuit
	seq         *sim.Sequence
	faults      []fault.Fault
}

type gradeInst struct {
	workers int
	ops     []gradeOp
}

func (s gradeSpec) setup(seed uint64, _ string) (instance, error) {
	rng := randutil.New(seed)
	in := &gradeInst{workers: s.workers}
	for _, ss := range s.sessions {
		c, err := iscas.Load(ss.circuit)
		if err != nil {
			return nil, err
		}
		seq := core.ConcatSequence(randomAssignments(rng, c.NumInputs(), ss.assignments), ss.lg)
		for _, name := range s.models {
			model, err := fault.ModelByName(name)
			if err != nil {
				return nil, err
			}
			in.ops = append(in.ops, gradeOp{
				label:  ss.circuit + "/" + name,
				cell:   "fsim." + ss.circuit + "." + name,
				c:      c,
				seq:    seq,
				faults: fault.CollapsedUniverseFor(c, model),
			})
		}
	}
	return in, nil
}

// randomAssignments gives every primary input a random 1- to 3-bit
// subsequence α in each of n assignments: the weights a Figure 1 generator
// repeats.
func randomAssignments(rng *randutil.RNG, inputs, n int) []core.Assignment {
	omega := make([]core.Assignment, n)
	for a := range omega {
		subs := make([]string, inputs)
		for i := range subs {
			b := make([]byte, 1+rng.Intn(3))
			for k := range b {
				b[k] = '0' + byte(rng.Intn(2))
			}
			subs[i] = string(b)
		}
		omega[a] = core.Assignment{Subs: subs}
	}
	return omega
}

func (in *gradeInst) round(tr *tracer) []opResult {
	out := make([]opResult, 0, len(in.ops))
	for _, op := range in.ops {
		span := tr.start("bench/grade/" + op.label)
		ctr0, cpu0, t0 := telemetry.Counters(), cpuTime(), time.Now()
		o := fsim.Run(op.c, op.seq, op.faults, fsim.Options{Init: expt.InitFor(op.c.Name), Workers: in.workers})
		res := opResult{
			label:   op.label,
			cell:    op.cell,
			class:   "grade",
			latency: time.Since(t0),
			cpu:     cpuTime() - cpu0,
			ctr:     telemetry.Counters().Sub(ctr0),
		}
		span.End()
		res.record, res.err = gradeRecord(o, op.seq.Len())
		out = append(out, res)
	}
	return out
}

func (in *gradeInst) close() error { return nil }

// gradeRecord is the checked output of a graded session: the detected count
// and the digest of every fault's first detection time.
func gradeRecord(o *fsim.Outcome, length int) (string, error) {
	times := make([]string, len(o.DetTime))
	n := 0
	for i, t := range o.DetTime {
		if o.Detected[i] != (t >= 0) || t >= length {
			return "", fmt.Errorf("fault %d: detected=%v at time %d of a %d-vector session", i, o.Detected[i], t, length)
		}
		if o.Detected[i] {
			n++
		}
		times[i] = strconv.Itoa(t)
	}
	if n != o.NumDetected {
		return "", fmt.Errorf("NumDetected %d, but %d faults are marked detected", o.NumDetected, n)
	}
	return canonical(struct {
		Detected int    `json:"detected"`
		DetTime  string `json:"det_time_sha256"`
	}{o.NumDetected, sha(strings.Join(times, ","))})
}
