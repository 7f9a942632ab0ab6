package fsim_test

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
)

// Kernel head-to-head benchmarks: the kernel layer's own yardstick, below
// the end-to-end `bash benchmark/run.sh`. Each case fault-simulates a
// weighted sequence (the paper's α^r on every input, the shape of a graded
// BIST session) against a model's collapsed fault list at Workers=1 on one
// reused simulator. Compare the kernels with
//
//	go test ./internal/fsim -run '^$' -bench 'Kernel(Dense|Slab)$'
//
// and the slab lane widths behind the automatic width rule with
//
//	go test ./internal/fsim -run '^$' -bench KernelSlabLanes

// kernelBenchCircuits are the two grade-session circuits and a small suite
// member. Large fault lists are cut to kernelBenchGroups groups so that one
// iteration stays short while the automatic width still fills whole batches.
var kernelBenchCircuits = []string{"s298", "s5378", "s35932"}

const kernelBenchGroups = 16

var kernelBenchModels = []fault.Model{fault.StuckAt{}, fault.Transition{}, fault.Bridging{}}

// kernelBenchInput returns the fault list and the 256-vector weighted
// sequence of one case.
func kernelBenchInput(c *circuit.Circuit, m fault.Model) ([]fault.Fault, *sim.Sequence) {
	rng := randutil.New(0xbe7c4)
	subs := make([]string, c.NumInputs())
	for i := range subs {
		bs := make([]byte, 1+rng.Intn(3))
		for j := range bs {
			bs[j] = '0' + byte(rng.Intn(2))
		}
		subs[i] = string(bs)
	}
	faults := fault.CollapsedUniverseFor(c, m)
	if len(faults) > kernelBenchGroups*fsim.GroupSize {
		faults = faults[:kernelBenchGroups*fsim.GroupSize]
	}
	return faults, core.Assignment{Subs: subs}.GenSequence(256)
}

// runKernelBenchmark benchmarks every circuit × model case under opts.
func runKernelBenchmark(b *testing.B, opts fsim.Options) {
	for _, name := range kernelBenchCircuits {
		c := iscas.MustLoad(name)
		for _, m := range kernelBenchModels {
			b.Run(name+"/"+m.Name(), func(b *testing.B) {
				faults, seq := kernelBenchInput(c, m)
				opts := opts
				opts.Init, opts.Workers = logic.Zero, 1
				s := fsim.New(c)
				s.Run(seq, faults, opts) // warm up caches and the arena
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Run(seq, faults, opts)
				}
			})
		}
	}
}

func BenchmarkKernelDense(b *testing.B) {
	runKernelBenchmark(b, fsim.Options{Kernel: fsim.KernelDense})
}

func BenchmarkKernelSlab(b *testing.B) {
	runKernelBenchmark(b, fsim.Options{Kernel: fsim.KernelSlab})
}

// BenchmarkKernelSlabLanes sweeps the slab lane width W over 1, 2, 4, 8
// and 16 (explicit SlabLanes) on every case: the measurement behind the
// automatic width.
func BenchmarkKernelSlabLanes(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			runKernelBenchmark(b, fsim.Options{Kernel: fsim.KernelSlab, SlabLanes: w})
		})
	}
}
