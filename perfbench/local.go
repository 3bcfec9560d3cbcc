package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"recyclesim"
	"recyclesim/internal/emu"
	"recyclesim/internal/sample"
	"recyclesim/internal/stats"
	"recyclesim/internal/sweep"
	"recyclesim/internal/workload"
)

// rng is splitmix64: the only source of workload randomness, seeded by
// --seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// localCell is one cell of a local sweep.
type localCell struct {
	name   string // "<program>/<preset>"
	preset string
	prog   *recyclesim.Program
	gen    bool // generated program: checked against the emulator, not golden.json
}

// localRep is what one repetition of a local sweep measured.
type localRep struct {
	wall     float64
	cellMS   []float64
	simInsts float64
	smtNS    [2]float64 // host ns, committed insts of SMT cells
	recNS    [2]float64 // the same for REC/RS/RU cells
}

// sweepCells runs every cell once on r.nproc workers, each cell timed
// by itself, and returns the repetition's measurements.  fn runs one
// cell, checks its result and returns its committed (or emulated +
// detailed) instructions; every cell counts as one attempt.
func (r *runner) sweepCells(cells []localCell, fn func(i int) (insts uint64, err error)) (localRep, error) {
	ms := make([]float64, len(cells))
	insts := make([]uint64, len(cells))
	errs := make([]error, len(cells))
	start := time.Now()
	sweep.Run(len(cells), r.nproc, func(i int) {
		t0 := time.Now()
		insts[i], errs[i] = fn(i)
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	})
	rep := localRep{wall: time.Since(start).Seconds(), cellMS: ms}
	for i, c := range cells {
		r.check(errs[i])
		rep.simInsts += float64(insts[i])
		switch c.preset {
		case "SMT":
			rep.smtNS[0] += ms[i] * 1e6
			rep.smtNS[1] += float64(insts[i])
		case "REC/RS/RU":
			rep.recNS[0] += ms[i] * 1e6
			rep.recNS[1] += float64(insts[i])
		}
	}
	return rep, r.ctx.Err()
}

// reportLocal sets the metrics of a local sweep from its untraced
// repetitions.  Cell percentiles cover the kernel cells only, which are
// the same for every seed.
func (r *runner) reportLocal(reps []localRep, cells []localCell, perInst bool) {
	reps = reps[:len(r.walls)] // the untraced repetitions come first
	var rates, cps, cellMS []float64
	var smt, rec [2]float64
	for _, rp := range reps {
		rates = append(rates, rp.simInsts/rp.wall/1e6)
		cps = append(cps, float64(len(cells))/rp.wall)
		for i, c := range cells {
			if !c.gen {
				cellMS = append(cellMS, rp.cellMS[i])
			}
		}
		smt[0], smt[1] = smt[0]+rp.smtNS[0], smt[1]+rp.smtNS[1]
		rec[0], rec[1] = rec[0]+rp.recNS[0], rec[1]+rp.recNS[1]
	}
	r.set("sim_minsts_per_s", "M/s", median(rates))
	r.set("cells_per_s", "1/s", median(cps))
	r.setCellPercentiles(cellMS)
	if perInst {
		r.set("core.smt.ns_per_inst", "ns", smt[0]/smt[1])
		r.set("core.rec.ns_per_inst", "ns", rec[0]/rec[1])
	}
}

// setCellPercentiles reports the median and p75 of per-cell times; p75
// is the highest percentile with at least minBeyond samples beyond it
// at the smallest cell count (40), and every run has at least that.
func (r *runner) setCellPercentiles(ms []float64) {
	r.set("cell_p50_ms", "ms", percentile(ms, 50))
	r.set("cell_p75_ms", "ms", percentile(ms, 75))
	r.set("cell_samples", "count", float64(len(ms)))
	if !supported(len(ms), 75) {
		r.check(fmt.Errorf("only %d cell samples: p75 is not supported", len(ms)))
	}
}

// setSimCounts reports the Table-1 style counts of the summed
// statistics; they are deterministic for a given seed.
func (r *runner) setSimCounts(s *stats.Sim) {
	r.set("core.renamed_per_committed", "ratio", ratio(s.Renamed, s.Committed))
	r.set("core.fetched_per_committed", "ratio", ratio(s.Fetched, s.Committed))
	r.set("recycle.recycled_pct", "%", s.PctRecycled())
	r.set("recycle.reused_pct", "%", s.PctReused())
	r.set("tme.forks_per_kinst", "1/kinst", 1000*ratio(s.Forks, s.Committed))
	r.set("bpred.mispredict_pct", "%", pct(s.Mispredicts, s.CondBranches))
	r.set("tme.miss_coverage_pct", "%", s.BranchMissCoverage())
}

func ratio(a, b uint64) float64 { return pct(a, b) / 100 }

// runDetailedSweep is the detailed-sweep workload: the 8 kernels plus
// two seed-generated programs under all six presets on big.2.16,
// 100k committed instructions per cell.
func runDetailedSweep(r *runner) error {
	var cells []localCell
	for i := 0; i < setups; i++ {
		if err := r.setup(func() error {
			var err error
			cells, err = detailedCells(r.seed)
			return err
		}); err != nil {
			return err
		}
	}

	// A generated cell's first result is its reference: later
	// repetitions must reproduce it, and verifyGenerated checks it
	// against the golden emulator.  Kernel cells are checked against
	// golden.json.  The digest costs microseconds against a cell's
	// tens of milliseconds, so it stays inside the cell's timing.
	genRef := make([]*recyclesim.Result, len(cells))
	var reps []localRep
	var first []*recyclesim.Result
	err := r.measure(func() (time.Duration, error) {
		results := make([]*recyclesim.Result, len(cells))
		rep, err := r.sweepCells(cells, func(i int) (uint64, error) {
			c := cells[i]
			res, err := runDetailed(r.ctx, detailedOptions(c.prog, c.preset, detailedInsts))
			if err != nil {
				return 0, fmt.Errorf("%s: %w", c.name, err)
			}
			results[i] = res
			switch {
			case !c.gen:
				err = checkDigest(r.golden.Detailed, c.name, digest(res))
			case genRef[i] == nil:
				genRef[i] = res
			case digest(genRef[i]) != digest(res):
				err = fmt.Errorf("%s: result differs between repetitions", c.name)
			}
			return res.Committed, err
		})
		if first == nil {
			first = results
		}
		reps = append(reps, rep)
		return time.Duration(rep.wall * float64(time.Second)), err
	})
	if err != nil {
		return err
	}
	r.verifyGenerated(cells, genRef)
	r.reportLocal(reps, cells, true)
	var sum stats.Sim
	for _, res := range first {
		if res != nil {
			sum.Add(res)
		}
	}
	r.setSimCounts(&sum)
	return nil
}

// detailedCells builds the detailed-sweep grid: two programs generated
// from the seed, then the kernels.  The generated cells go first
// because their cost changes with the seed: queued last, they would
// also decide how unevenly the sweep's tail spreads over the workers.
func detailedCells(seed uint64) ([]localCell, error) {
	ks, err := kernels()
	if err != nil {
		return nil, err
	}
	rnd := &rng{s: seed}
	var progs []*recyclesim.Program
	gens := map[*recyclesim.Program]bool{}
	for k := 0; k < 2; k++ {
		p := workload.Generate(workload.DefaultGenParams(rnd.next()))
		gens[p] = true
		progs = append(progs, p)
	}
	progs = append(progs, ks...)
	var cells []localCell
	for _, p := range progs {
		for _, preset := range detailedPresets {
			cells = append(cells, localCell{name: p.Name + "/" + preset, preset: preset, prog: p, gen: gens[p]})
		}
	}
	return cells, nil
}

// verifyGenerated re-runs every generated cell with a commit hook that
// checks each committed instruction against the golden emulator, and
// requires the hooked run to reproduce the measured result.
func (r *runner) verifyGenerated(cells []localCell, refs []*recyclesim.Result) {
	var idx []int
	for i, c := range cells {
		if c.gen {
			idx = append(idx, i)
		}
	}
	errs := make([]error, len(idx))
	sweep.Run(len(idx), r.nproc, func(k int) {
		c := cells[idx[k]]
		ref := emu.New(c.prog)
		var mismatch error
		o := detailedOptions(c.prog, c.preset, detailedInsts)
		o.CommitHook = func(ci recyclesim.CommitInfo) {
			want := ref.Step()
			if mismatch == nil && (want.PC != ci.PC || want.Inst != ci.Inst ||
				(ci.Inst.WritesReg() && want.Result != ci.Result) ||
				(ci.Inst.IsMem() && want.Addr != ci.Addr) ||
				(ci.Inst.IsBranch() && want.Taken != ci.Taken)) {
				mismatch = fmt.Errorf("%s: commit %d at pc 0x%x differs from the emulator", c.name, ref.Retired, ci.PC)
			}
		}
		res, err := runDetailed(r.ctx, o)
		switch {
		case err != nil:
			errs[k] = fmt.Errorf("%s: %w", c.name, err)
		case mismatch != nil:
			errs[k] = mismatch
		case refs[idx[k]] == nil || digest(res) != digest(refs[idx[k]]):
			errs[k] = fmt.Errorf("%s: hooked run differs from the measured result", c.name)
		}
	})
	for _, err := range errs {
		r.check(err)
	}
}

// runSampledSweep is the sampled-sweep workload: the 8 kernels under
// five presets, 2M instructions per cell, sampled with P=100k and
// L=W=1000.
func runSampledSweep(r *runner) error {
	var cells []localCell
	for i := 0; i < setups; i++ {
		if err := r.setup(func() error {
			progs, err := kernels()
			if err != nil {
				return err
			}
			cells = cells[:0]
			for _, p := range progs {
				for _, preset := range sampledPresets {
					cells = append(cells, localCell{name: p.Name + "/" + preset, preset: preset, prog: p})
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	var reps []localRep
	var first []*recyclesim.SampledResult
	err := r.measure(func() (time.Duration, error) {
		results := make([]*recyclesim.SampledResult, len(cells))
		rep, err := r.sweepCells(cells, func(i int) (uint64, error) {
			c := cells[i]
			res, err := recyclesim.RunSampledContext(r.ctx, sampledOptions(c.prog, c.preset))
			if err != nil {
				return 0, fmt.Errorf("%s: %w", c.name, err)
			}
			results[i] = res
			if got, want := digest(res), r.golden.Sampled[c.name].Digest; got != want {
				err = fmt.Errorf("%s: sampled digest %s, golden %s", c.name, got, want)
			}
			return res.TotalInsts + res.DetailedInsts, err
		})
		if first == nil {
			first = results
		}
		reps = append(reps, rep)
		return time.Duration(rep.wall * float64(time.Second)), err
	})
	if err != nil {
		return err
	}
	r.reportLocal(reps, cells, false)

	var sum stats.Sim
	var detailed, total uint64
	errMax := 0.0
	for i, res := range first {
		if res == nil {
			continue
		}
		sum.Add(&res.Measured)
		detailed += res.DetailedInsts
		total += res.TotalInsts
		if ref := r.golden.Sampled[cells[i].name].RefIPC; ref > 0 {
			errMax = math.Max(errMax, 100*math.Abs(res.IPC-ref)/ref)
		}
	}
	r.setSimCounts(&sum)
	r.set("sample.detailed_frac", "ratio", ratio(detailed, total))
	r.set("ipc_err_max_pct", "%", errMax)
	if r.traced {
		r.timeSampleCalls(cells)
	}
	return nil
}

// timeSampleCalls times the emulator and the warming models directly,
// outside the measured phase: emu.Run, Warmup.Observe and Warmup.Clone.
func (r *runner) timeSampleCalls(cells []localCell) {
	const n = 200_000
	var emuNS, emuInsts, obsNS, obsInsts float64
	var w *sample.Warmup
	seen := map[*recyclesim.Program]bool{}
	buf := make([]emu.StepInfo, 0, n)
	for _, c := range cells {
		if seen[c.prog] {
			continue
		}
		seen[c.prog] = true
		e := emu.New(c.prog)
		t0 := time.Now()
		emuInsts += float64(e.Run(n))
		emuNS += float64(time.Since(t0).Nanoseconds())

		buf = emu.New(c.prog).TraceInto(buf, n)
		w = sample.NewWarmup(machine())
		t0 = time.Now()
		for i := range buf {
			w.Observe(&buf[i])
		}
		obsNS += float64(time.Since(t0).Nanoseconds())
		obsInsts += float64(len(buf))
	}
	r.set("emu.ns_per_inst", "ns", emuNS/emuInsts)
	r.set("sample.observe_ns", "ns", obsNS/obsInsts)

	const clones = 20
	var us []float64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	keep := make([]*sample.Warmup, 0, clones)
	for i := 0; i < clones; i++ {
		t0 := time.Now()
		keep = append(keep, w.Clone())
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	runtime.ReadMemStats(&ms)
	r.set("sample.clone_us", "us", median(us))
	r.set("sample.clone_kb", "KB", float64(ms.TotalAlloc-before)/clones/1024)
	runtime.KeepAlive(keep)
}
