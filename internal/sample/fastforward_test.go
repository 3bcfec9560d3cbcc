package sample

import (
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// ffSteps is the fast-forward stretch each kernel runs per pass: long
// enough to reach every kernel's steady working set.
const ffSteps = 100_000

// restart returns e to the program's entry state in place, reusing its
// memory image, so a pass can be replayed without allocating.
func restart(e *emu.Emulator) {
	mem := e.Mem
	mem.Reset(e.Prog)
	*e = emu.Emulator{Prog: e.Prog, Mem: mem, PC: e.Prog.Entry}
	e.Regs[isa.RegSP] = program.StackBase
}

// fastForward runs the checkpoint pass's inner loop: n emulator steps,
// each observed by w when w is non-nil, restarting the program when
// it halts.
func fastForward(e *emu.Emulator, w *Warmup, si *emu.StepInfo, n int) {
	for i := 0; i < n; i++ {
		if e.Halted {
			restart(e)
		}
		e.StepInto(si)
		if w != nil {
			w.Observe(si)
		}
	}
}

// The fast-forward witness: once one pass has touched a kernel's
// memory pages, replaying the pass (emulator steps plus functional
// warming) allocates nothing.  A memory page is allocated on its first
// write only; Reset keeps the pages, so the replay finds them mapped.
func TestFastForwardAllocFree(t *testing.T) {
	mach := config.Big216()
	for _, name := range workload.Names {
		t.Run(name, func(t *testing.T) {
			e := emu.New(mustWorkload(t, name))
			w := NewWarmup(mach)
			var si emu.StepInfo
			// AllocsPerRun calls the function once before measuring:
			// that call is the warm pass.  Its floor-averaged count
			// over several passes absorbs a stray runtime allocation
			// but not one per pass.
			allocs := testing.AllocsPerRun(4, func() {
				restart(e)
				fastForward(e, w, &si, ffSteps)
			})
			if allocs != 0 {
				t.Errorf("%v allocations per %d-instruction fast-forward pass, want 0", allocs, ffSteps)
			}
			if e.Retired == 0 {
				t.Fatal("no instruction retired")
			}
		})
	}
}

// BenchmarkFastForward times the checkpoint pass's per-instruction
// work over every kernel in turn: emulator steps alone, and steps plus
// functional warming.  It reports ns/inst; the detailed core is not
// involved.
func BenchmarkFastForward(b *testing.B) {
	mach := config.Big216()
	var emus []*emu.Emulator
	for _, name := range workload.Names {
		p, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		emus = append(emus, emu.New(p))
	}
	const chunk = 10_000
	for _, observe := range []bool{false, true} {
		name := "emu"
		if observe {
			name = "emu+observe"
		}
		b.Run(name, func(b *testing.B) {
			warm := make([]*Warmup, len(emus))
			for k, e := range emus {
				restart(e)
				if observe {
					warm[k] = NewWarmup(mach)
				}
				fastForward(e, warm[k], &emu.StepInfo{}, ffSteps)
			}
			var si emu.StepInfo
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(emus)
				fastForward(emus[k], warm[k], &si, chunk)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/chunk, "ns/inst")
		})
	}
}
