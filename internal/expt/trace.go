package expt

import (
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
// The re-simulation reuses the run's configuration (Init, LG, Workers), so
// by the simulator's determinism guarantee the outcome matches the original
// run bit for bit regardless of worker count or kernel; the trace costs one
// extra simulation of T plus one per compacted assignment. The recorded
// kernel is the one fsim resolves by default (FSIM_KERNEL, else slab).
func TraceRun(r *Run) (*obsv.RunTrace, error) {
	c := r.Circuit
	cfg := r.Config
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
	model, err := fault.ModelByName(cfg.FaultModel)
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
	// the generated hardware performs. Windows are sized exactly like the
	// generation and reverse-order phases (LG raised to the latest target's
	// detection time + 1).
	lg := cfg.LG
	maxU := 0
	for _, dt := range r.DetTimes {
		if dt > maxU {
			maxU = dt
		}
	}
	if lg < maxU+1 {
		lg = maxU + 1
	}
	undetected := make([]bool, len(r.Targets))
	for i := range undetected {
		undetected[i] = true
	}
	for j, a := range r.Compacted {
		var fl []fault.Fault
		var idx []int
		for i, und := range undetected {
			if und {
				fl = append(fl, r.Targets[i])
				idx = append(idx, i)
			}
		}
		tr := obsv.NewTrace()
		tr.Assignment = j
		seq := a.GenSequence(lg)
		out := simulator.Run(seq, fl, fsim.Options{
			Init: r.Init, Workers: cfg.Workers, Trace: tr,
		})
		det := 0
		for k := range fl {
			if out.Detected[k] {
				undetected[idx[k]] = false
				det++
			}
		}
		seg := tr.Segment(lg, len(fl), det)
		// Remap the window's local fault indices to target indices so every
		// assignment segment speaks the same fault space.
		for k := range seg.Events {
			seg.Events[k].Fault = idx[seg.Events[k].Fault]
		}
		rt.Segments = append(rt.Segments, seg)
	}
	return rt, nil
}
