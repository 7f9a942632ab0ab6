package fsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
)

// Kernel benchmarks: the kernel layer's own yardstick, below the end-to-end
// `bash benchmark/run.sh`. Each case fault-simulates a weighted sequence
// (the paper's α^r on every input, the shape of a graded BIST session)
// against a model's collapsed fault list at Workers=1 on one reused
// simulator. Time the kernel at its automatic width with
//
//	go test ./internal/fsim -run '^$' -bench 'KernelSlab$'
//
// and the slab lane widths behind the automatic width rule with
//
//	go test ./internal/fsim -run '^$' -bench KernelSlabLanes
//
// Two kinds of case run under every model:
//   - <circuit>/<model>: s298, s5378 and s35932 over one 256-vector weighted
//     sequence, the fault list cut to kernelBenchGroups groups so that one
//     iteration stays short while the automatic width still fills whole
//     batches;
//   - session/<circuit>/<model>: the grade-session benchmark workload's seed-1
//     sessions (s5378: 2 assignments × 150 vectors, s35932: 2 × 4) against
//     the full collapsed universe from the all-zero state that workload
//     starts the synthetic circuits in. Here live faults thin out over hundreds of groups, which is what
//     lane packing acts on, and s35932's whole slab is the working set.
var kernelBenchCircuits = []string{"s298", "s5378", "s35932"}

const kernelBenchGroups = 16

var kernelBenchModels = []fault.Model{fault.StuckAt{}, fault.Transition{}, fault.Bridging{}}

// kernelSessions are the grade-session workload's sessions in its draw order
// (both draw from one seed-1 generator, s5378's first).
var kernelSessions = []struct {
	circuit         string
	assignments, lg int
}{{"s5378", 2, 150}, {"s35932", 2, 4}}

type kernelBenchCase struct {
	name   string
	c      *circuit.Circuit
	seq    *sim.Sequence
	faults []fault.Fault
}

// kernelBenchCases returns every case of every model.
func kernelBenchCases() []kernelBenchCase {
	var cases []kernelBenchCase
	for _, name := range kernelBenchCircuits {
		c := iscas.MustLoad(name)
		seq := periodicSequence(randutil.New(0xbe7c4), c.NumInputs(), 256)
		for _, m := range kernelBenchModels {
			faults := fault.CollapsedUniverseFor(c, m)
			if len(faults) > kernelBenchGroups*fsim.GroupSize {
				faults = faults[:kernelBenchGroups*fsim.GroupSize]
			}
			cases = append(cases, kernelBenchCase{name + "/" + m.Name(), c, seq, faults})
		}
	}
	rng := randutil.New(1)
	for _, ss := range kernelSessions {
		c := iscas.MustLoad(ss.circuit)
		// One window per assignment, as core.ConcatSequence lays them out.
		seq := periodicSequence(rng, c.NumInputs(), ss.lg)
		for a := 1; a < ss.assignments; a++ {
			seq.Concat(periodicSequence(rng, c.NumInputs(), ss.lg))
		}
		for _, m := range kernelBenchModels {
			cases = append(cases, kernelBenchCase{"session/" + ss.circuit + "/" + m.Name(), c, seq, fault.CollapsedUniverseFor(c, m)})
		}
	}
	return cases
}

// runKernelBenchmark benchmarks every case under opts and, unless check is
// nil, hands it each case's outcome.
func runKernelBenchmark(b *testing.B, opts fsim.Options, check func(b *testing.B, name string, out *fsim.Outcome)) {
	for _, tc := range kernelBenchCases() {
		b.Run(tc.name, func(b *testing.B) {
			opts := opts
			opts.Init, opts.Workers = logic.Zero, 1
			s := fsim.New(tc.c)
			out := s.Run(tc.seq, tc.faults, opts) // warm up caches and the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Run(tc.seq, tc.faults, opts)
			}
			if check != nil {
				check(b, tc.name, out)
			}
		})
	}
}

func BenchmarkKernelSlab(b *testing.B) {
	runKernelBenchmark(b, fsim.Options{}, nil)
}

// BenchmarkKernelSlabLanes sweeps the slab lane width W over 1, 2, 4, 8
// and 16 (explicit SlabLanes) on every case: the measurement behind the
// automatic width. A one-lane batch never repacks, so every wider width
// must reproduce W=1's outcome on each case, the repack paths of every
// width included.
func BenchmarkKernelSlabLanes(b *testing.B) {
	ref := map[string]*fsim.Outcome{}
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			runKernelBenchmark(b, fsim.Options{SlabLanes: w}, func(b *testing.B, name string, out *fsim.Outcome) {
				out.Work.Slab = fsim.SlabWork{} // the batch tallies follow W
				if w == 1 {
					ref[name] = out
				} else if want, ok := ref[name]; ok && !reflect.DeepEqual(out, want) {
					b.Errorf("%s: W=%d outcome differs from W=1", name, w)
				}
			})
		})
	}
}
