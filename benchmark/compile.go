package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/expt"
	"repro/internal/iscas"
	"repro/internal/randutil"
	"repro/internal/telemetry"
)

// compileSpec sizes a compile workload: every round compiles each circuit
// under each fault model once per pipeline seed drawn from the run's seed.
type compileSpec struct {
	circuits []string
	models   []string
	configs  int // pipeline seeds per circuit and model
	lg       int // per-assignment sequence length (0 = the paper's 2000)
	workers  int
}

type compileOp struct {
	label, cell string
	c           *circuit.Circuit
	cfg         expt.Config
}

type compileInst struct {
	workers int
	ops     []compileOp
}

// configSeed draws a pipeline seed; small numbers keep the op labels short.
func configSeed(rng *randutil.RNG) uint64 { return 1 + uint64(rng.Intn(1<<20)) }

func (s compileSpec) setup(seed uint64, _ string) (instance, error) {
	rng := randutil.New(seed)
	in := &compileInst{workers: s.workers}
	for _, name := range s.circuits {
		c, err := iscas.Load(name)
		if err != nil {
			return nil, err
		}
		for _, model := range s.models {
			for k := 0; k < s.configs; k++ {
				cfg := expt.CanonicalConfig(name, expt.Config{LG: s.lg, Seed: configSeed(rng), FaultModel: model})
				in.ops = append(in.ops, compileOp{
					label: fmt.Sprintf("%s/%s/seed=%d", name, model, cfg.Seed),
					cell:  "expt." + name + "." + model,
					c:     c,
					cfg:   cfg,
				})
			}
		}
	}
	return in, nil
}

func (in *compileInst) round(tr *tracer) []opResult {
	out := make([]opResult, 0, len(in.ops))
	for _, op := range in.ops {
		cfg := op.cfg
		cfg.Workers = in.workers
		cfg.Telemetry = tr.recorder()
		span := tr.start("bench/compile/" + op.label)
		ctr0, cpu0, t0 := telemetry.Counters(), cpuTime(), time.Now()
		r, err := expt.RunPipeline(op.c, expt.InitFor(op.c.Name), cfg)
		res := opResult{
			label:   op.label,
			cell:    op.cell,
			class:   "compile",
			latency: time.Since(t0),
			cpu:     cpuTime() - cpu0,
			ctr:     telemetry.Counters().Sub(ctr0),
			err:     err,
		}
		span.End()
		if err == nil {
			res.record, res.err = compileRecord(r)
			res.phases = cfg.Telemetry.Phases()
			res.seqLen, res.omega, res.kept = r.T.Len(), len(r.Core.Omega), len(r.Compacted)
		}
		out = append(out, res)
	}
	return out
}

func (in *compileInst) close() error { return nil }

// compileRecord is the checked output of a compile: the Table 6 row and the
// digests of T and of the pruned Ω. Every target T detects must stay covered.
func compileRecord(r *expt.Run) (string, error) {
	if r.Core.Unreproduced != 0 {
		return "", fmt.Errorf("Ω leaves %d of %d targets undetected", r.Core.Unreproduced, len(r.Targets))
	}
	omega := make([]string, len(r.Compacted))
	for i, a := range r.Compacted {
		omega[i] = a.String()
	}
	return canonical(struct {
		Table6 expt.Table6Row `json:"table6"`
		T      string         `json:"t_sha256"`
		Omega  string         `json:"omega_sha256"`
	}{expt.Table6(r), sha(r.T.String()), sha(strings.Join(omega, "\n"))})
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// canonical renders a record as compact JSON; records compare as strings.
func canonical(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}
