package expt

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/obsv"
)

// TraceRun re-simulates a completed pipeline run with detection tracing and
// returns its provenance record: the deterministic sequence T against the
// collapsed fault universe, then each compacted weight assignment's window
// (in schedule order) against the targets it was scheduled to mop up. The
// result is the data behind `wbist report` — which assignment detects which
// fault, when, and at which output.
//
// The re-simulation reuses the run's Init and window length and runs at
// cfg.Workers, the only field of cfg it reads; by the simulator's determinism
// guarantee the outcome matches the original run bit for bit regardless of
// worker count or kernel. The trace costs one extra simulation of T plus one
// per compacted assignment. The recorded kernel is the one fsim resolves by
// default (FSIM_KERNEL, else slab).
func TraceRun(r *Run, cfg Config) (*obsv.RunTrace, error) {
	c := r.Circuit
	rt := &obsv.RunTrace{
		Schema:  obsv.TraceSchema,
		Circuit: r.Name,
		Kernel:  fsim.KernelAuto.Resolve().String(),
		Targets: len(r.Targets),
		TLen:    r.T.Len(),
	}
	if rt.Circuit == "" {
		rt.Circuit = c.Name
	}
	simulator := fsim.New(c)

	// Segment -1: T against the whole collapsed universe of the run's fault
	// model. Event fault indices are universe indices.
	model, err := fault.ModelByName(r.Config.FaultModel)
	if err != nil {
		return nil, err
	}
	universe := fault.CollapsedUniverseFor(c, model)
	rt.TotalFaults = len(universe)
	tr := obsv.NewTrace()
	out := simulator.Run(r.T, universe, fsim.Options{
		Init: r.Init, Workers: cfg.Workers, Trace: tr,
	})
	rt.Segments = append(rt.Segments, tr.Segment(r.T.Len(), len(universe), out.NumDetected))

	// One segment per compacted assignment, in schedule order, against the
	// targets still undetected when it runs — the same fault-dropping walk
	// the generated hardware performs, over windows of the same length.
	lg := r.Core.WindowLen()
	pend := core.NewPending(r.Targets)
	for j, a := range r.Compacted {
		tr := obsv.NewTrace()
		tr.Assignment = j
		_, idx, det := pend.Simulate(simulator, a.GenSequence(lg), fsim.Options{
			Init: r.Init, Workers: cfg.Workers, Trace: tr,
		})
		seg := tr.Segment(lg, len(idx), det)
		// Remap the window's local fault indices to target indices so every
		// assignment segment speaks the same fault space.
		for k := range seg.Events {
			seg.Events[k].Fault = idx[seg.Events[k].Fault]
		}
		rt.Segments = append(rt.Segments, seg)
	}
	return rt, nil
}
