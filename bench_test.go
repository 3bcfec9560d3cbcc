// Benchmark harness: one testing.B target per table/figure of the
// paper plus micro-benchmarks of the simulator's hot structures.
// Benchmark metrics report simulated IPC (higher is better) alongside
// the usual ns/op, so `go test -bench=.` regenerates the paper's
// comparisons in miniature:
//
//	go test -bench=Figure3 -benchtime=1x
//	go test -bench=. -benchmem
package recyclesim

import (
	"fmt"
	"testing"
)

const benchInsts = 60_000

func runOnce(b *testing.B, machine string, preset string, mix []string) *Result {
	b.Helper()
	res, err := Run(Options{
		Machine:   MachineByName(machine),
		Features:  PresetByName(preset),
		Workloads: mix,
		MaxInsts:  benchInsts,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigure3 regenerates Figure 3's comparisons: per-benchmark
// IPC under the six architectures (single program, big.2.16).
func BenchmarkFigure3(b *testing.B) {
	for _, bench := range Workloads() {
		for _, preset := range []string{"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"} {
			b.Run(bench+"/"+preset, func(b *testing.B) {
				var ipc float64
				for i := 0; i < b.N; i++ {
					ipc = runOnce(b, "big.2.16", preset, []string{bench}).IPC()
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: average IPC for 1, 2 and 4
// simultaneous programs.
func BenchmarkFigure4(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		for _, preset := range []string{"SMT", "TME", "REC/RS/RU"} {
			b.Run(fmt.Sprintf("%dprog/%s", n, preset), func(b *testing.B) {
				var ipc float64
				for i := 0; i < b.N; i++ {
					total := 0.0
					var mixes [][]string
					if n == 1 {
						mixes = [][]string{{"compress"}, {"go"}, {"vortex"}}
					} else {
						mixes = Mixes(n)[:3]
					}
					for _, mix := range mixes {
						total += runOnce(b, "big.2.16", preset, mix).IPC()
					}
					ipc = total / float64(len(mixes))
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// BenchmarkTable1 regenerates Table 1's recycling statistics under the
// full REC/RS/RU architecture.
func BenchmarkTable1(b *testing.B) {
	for _, bench := range Workloads() {
		b.Run(bench, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, "big.2.16", "REC/RS/RU", []string{bench})
			}
			b.ReportMetric(res.PctRecycled(), "%recycled")
			b.ReportMetric(res.PctReused(), "%reused")
			b.ReportMetric(res.BranchMissCoverage(), "%misscov")
			b.ReportMetric(res.PctBackMerges(), "%backmerge")
		})
	}
}

// BenchmarkFigure5 regenerates Figure 5: the alternate-path fetch
// policies (stop/fetch/nostop at 8/16/32 instructions).
func BenchmarkFigure5(b *testing.B) {
	for _, pol := range []AltPolicy{AltNoStop, AltStop, AltFetch} {
		for _, lim := range []int{8, 16, 32} {
			b.Run(fmt.Sprintf("%s-%d", pol, lim), func(b *testing.B) {
				var ipc float64
				for i := 0; i < b.N; i++ {
					feat := PresetByName("REC/RS/RU")
					feat.AltPolicy = pol
					feat.AltLimit = lim
					res, err := Run(Options{
						Machine:   MachineByName("big.2.16"),
						Features:  feat,
						Workloads: []string{"go", "compress"},
						MaxInsts:  benchInsts,
					})
					if err != nil {
						b.Fatal(err)
					}
					ipc = res.IPC()
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: the four machine design
// points under SMT, TME, and full recycling.
func BenchmarkFigure6(b *testing.B) {
	for _, machine := range []string{"small.1.8", "small.2.8", "big.1.8", "big.2.16"} {
		for _, preset := range []string{"SMT", "TME", "REC/RS/RU"} {
			b.Run(machine+"/"+preset, func(b *testing.B) {
				var ipc float64
				for i := 0; i < b.N; i++ {
					total := 0.0
					for _, mix := range Mixes(2)[:2] {
						total += runOnce(b, machine, preset, mix).IPC()
					}
					ipc = total / 2
				}
				b.ReportMetric(ipc, "IPC")
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// instructions per host second) — the engineering metric for the
// simulator itself rather than the paper's architecture results.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, preset := range []string{"SMT", "REC/RS/RU"} {
		b.Run(preset, func(b *testing.B) {
			b.ReportAllocs()
			insts := uint64(0)
			for i := 0; i < b.N; i++ {
				res := runOnce(b, "big.2.16", preset, []string{"gcc"})
				insts += res.Committed
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "simInsts/s")
		})
	}
}

// sampledBenchWorkers fixes the sampled benchmarks' worker count.  A
// sampled run keeps one snapshot buffer and one interval core per
// worker, so B/op scales with it; a fixed count keeps the gated B/op
// independent of the host's core count.
const sampledBenchWorkers = 2

// BenchmarkSampledThroughput measures the effective speed of sampled
// simulation: total simulated (emulated + detailed) instructions per
// host second under the benchmark schedule.  Compare against
// BenchmarkSimulatorThroughput's simInsts/s for the same preset and
// workload — the ratio is the sampling speedup the gate tracks.  Its
// B/op is the per-run memory of sampled mode, which the gate also
// tracks: it must stay independent of the interval count.
func BenchmarkSampledThroughput(b *testing.B) {
	for _, preset := range []string{"SMT", "REC/RS/RU"} {
		b.Run(preset, func(b *testing.B) {
			b.ReportAllocs()
			insts := uint64(0)
			var res *SampledResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = RunSampled(Options{
					Machine:   MachineByName("big.2.16"),
					Features:  PresetByName(preset),
					Workloads: []string{"gcc"},
					MaxInsts:  8_000_000,
					Sampling:  &Sampling{Period: 400_000, IntervalLen: 1_000, WarmupLen: 1_000, Workers: sampledBenchWorkers},
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.TotalInsts
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "simInsts/s")
			b.ReportMetric(res.IPC, "IPC")
		})
	}
}

// BenchmarkSampledFigure3 regenerates the Figure 3 sweep in sampled
// mode — the acceptance matrix of workloads and architectures — with
// each cell reporting its estimated IPC.  Effective throughput is
// gated by BenchmarkSampledThroughput's two long cells; single-shot
// per-cell simInsts/s would be too noisy for a 10% gate.
func BenchmarkSampledFigure3(b *testing.B) {
	for _, bench := range Workloads() {
		for _, preset := range []string{"SMT", "TME", "REC", "REC/RS", "REC/RS/RU"} {
			b.Run(bench+"/"+preset, func(b *testing.B) {
				var res *SampledResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = RunSampled(Options{
						Machine:   MachineByName("big.2.16"),
						Features:  PresetByName(preset),
						Workloads: []string{bench},
						MaxInsts:  1_000_000,
						Sampling:  &Sampling{Period: 50_000, IntervalLen: 1_000, WarmupLen: 1_000, Workers: sampledBenchWorkers},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.IPC, "IPC")
			})
		}
	}
}

// BenchmarkPipetraceOverhead measures what per-instruction tracing
// costs the cycle loop: the same REC/RS/RU run untraced, traced at
// 1-in-64 sampling, and traced in full.  The untraced variant gates the
// nil-guard overhead of the hooks; the traced variants gate the
// recorder itself.
func BenchmarkPipetraceOverhead(b *testing.B) {
	for _, mode := range []struct {
		name   string
		sample uint64
		traced bool
	}{
		{"off", 0, false},
		{"sampled64", 64, true},
		{"full", 1, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			insts := uint64(0)
			for i := 0; i < b.N; i++ {
				var tracer *PipeTracer
				if mode.traced {
					tracer = NewPipeTracer(PipeTraceConfig{SampleEvery: mode.sample})
				}
				res, err := Run(Options{
					Machine:   MachineByName("big.2.16"),
					Features:  PresetByName("REC/RS/RU"),
					Workloads: []string{"gcc"},
					MaxInsts:  benchInsts,
					PipeTrace: tracer,
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.Committed
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "simInsts/s")
		})
	}
}

// BenchmarkAblationTrustTrace compares §3.4's two recycling methods:
// the default ("latter") stops the stream at the first branch whose
// current prediction disagrees with the trace; TrustTrace ("former")
// follows the trace's stored predictions unconditionally.
func BenchmarkAblationTrustTrace(b *testing.B) {
	for _, trust := range []bool{false, true} {
		name := "latter-stop-on-disagree"
		if trust {
			name = "former-trust-trace"
		}
		b.Run(name, func(b *testing.B) {
			var ipc, rec float64
			for i := 0; i < b.N; i++ {
				feat := PresetByName("REC/RS/RU")
				feat.TrustTrace = trust
				res, err := Run(Options{
					Machine:   MachineByName("big.2.16"),
					Features:  feat,
					Workloads: []string{"compress"},
					MaxInsts:  benchInsts,
				})
				if err != nil {
					b.Fatal(err)
				}
				ipc, rec = res.IPC(), res.PctRecycled()
			}
			b.ReportMetric(ipc, "IPC")
			b.ReportMetric(rec, "%recycled")
		})
	}
}

// BenchmarkAblationForkAggressiveness quantifies a design tradeoff the
// paper sweeps in Figure 5: longer alternate paths give recycling more
// material but hold spare contexts longer.
func BenchmarkAblationForkAggressiveness(b *testing.B) {
	for _, limit := range []int{8, 32} {
		b.Run(fmt.Sprintf("altlimit-%d", limit), func(b *testing.B) {
			var cov, ipc float64
			for i := 0; i < b.N; i++ {
				feat := PresetByName("REC/RS/RU")
				feat.AltLimit = limit
				res, err := Run(Options{
					Machine:   MachineByName("big.2.16"),
					Features:  feat,
					Workloads: []string{"go"},
					MaxInsts:  benchInsts,
				})
				if err != nil {
					b.Fatal(err)
				}
				cov, ipc = res.BranchMissCoverage(), res.IPC()
			}
			b.ReportMetric(ipc, "IPC")
			b.ReportMetric(cov, "%misscov")
		})
	}
}
