package sample

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"recyclesim/internal/bpred"
	"recyclesim/internal/cache"
	"recyclesim/internal/confidence"
	"recyclesim/internal/config"
	"recyclesim/internal/core"
	"recyclesim/internal/emu"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

func mustWorkload(t *testing.T, name string) *program.Program {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkCloneInto is the CloneInto witness for one model: cloning into
// the used buffer dst must deeply equal a fresh Clone, and afterwards
// mutating either side must leave the other unchanged.
func checkCloneInto[T any](t *testing.T, src, dst T, cloneInto func(src, dst T), clone func(T) T, mutate func(T)) {
	t.Helper()
	cloneInto(src, dst)
	if !reflect.DeepEqual(dst, clone(src)) {
		t.Fatal("CloneInto a used buffer differs from a fresh Clone")
	}
	srcBefore := clone(src)
	mutate(dst)
	if reflect.DeepEqual(dst, srcBefore) {
		t.Fatal("mutation left the copy unchanged; the independence check would be vacuous")
	}
	if !reflect.DeepEqual(src, srcBefore) {
		t.Error("mutating the copy changed the source")
	}
	dstBefore := clone(dst)
	mutate(src)
	if !reflect.DeepEqual(dst, dstBefore) {
		t.Error("mutating the source changed the copy")
	}
}

// Every snapshot model's CloneInto, into a buffer a detailed core has
// already trained — the exact reuse pattern of a sampled run's slots.
func TestCloneIntoCoreMutatedBuffer(t *testing.T) {
	mach := config.Big216()
	p := mustWorkload(t, "gcc")

	// The master warms over 30k instructions; the buffer is a snapshot
	// of it at 10k that a core then trained for 5k commits.
	master := NewWarmup(mach)
	buf := &Warmup{}
	e := emu.New(p)
	var si emu.StepInfo
	for i := 0; i < 30_000; i++ {
		if i == 10_000 {
			master.CloneInto(buf)
		}
		e.StepInto(&si)
		master.Observe(&si)
	}
	c, err := core.NewSeeded(mach, config.RECRSRU, []*program.Program{p}, nil, buf.Models)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(5_000, 200_000); err != nil {
		t.Fatal(err)
	}

	// Mutations replay another program's stream through a model, with
	// fresh scratch models standing in for the other two.
	trace := emu.New(mustWorkload(t, "perl")).TraceInto(nil, 20_000)
	observe := func(m core.Models) {
		fresh := NewWarmup(mach)
		if m.Pred == nil {
			m.Pred = fresh.Pred
		}
		if m.Conf == nil {
			m.Conf = fresh.Conf
		}
		if m.Mem == nil {
			m.Mem = fresh.Mem
		}
		w := &Warmup{Models: m}
		for i := range trace {
			w.Observe(&trace[i])
		}
	}

	t.Run("cache", func(t *testing.T) {
		checkCloneInto(t, master.Mem.Clone(), buf.Mem,
			(*cache.Hierarchy).CloneInto, (*cache.Hierarchy).Clone,
			func(h *cache.Hierarchy) { observe(core.Models{Mem: h}) })
	})
	t.Run("bpred", func(t *testing.T) {
		checkCloneInto(t, master.Pred.Clone(), buf.Pred,
			(*bpred.Predictor).CloneInto, (*bpred.Predictor).Clone,
			func(p *bpred.Predictor) { observe(core.Models{Pred: p}) })
	})
	t.Run("confidence", func(t *testing.T) {
		checkCloneInto(t, master.Conf.Clone(), buf.Conf,
			(*confidence.Estimator).CloneInto, (*confidence.Estimator).Clone,
			func(e *confidence.Estimator) { observe(core.Models{Conf: e}) })
	})
	t.Run("Warmup", func(t *testing.T) {
		checkCloneInto(t, master, buf, (*Warmup).CloneInto, (*Warmup).Clone,
			func(w *Warmup) {
				for i := range trace {
					w.Observe(&trace[i])
				}
			})
	})
}

// sampledText runs one sampled estimate and renders its report.
func sampledText(t *testing.T, feat config.Features, p *program.Program, maxInsts uint64, cfg Config) (*Result, string) {
	t.Helper()
	r, err := Run(config.Big216(), feat, p, maxInsts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.String()
}

// A program that halts inside the measured tail of a period exercises
// the pass's drop-the-truncated-interval path while workers are still
// busy; the estimate must not depend on the worker count there either.
func TestSampledHaltInTailDeterminism(t *testing.T) {
	cfg := Config{Period: 5_000, IntervalLen: 500, WarmupLen: 500}
	// haltingLoop retires 4n+3 instructions; n = 4_800 halts at 19_203,
	// inside the detached-warmup + measured tail [19_000, 20_000) of
	// the fourth period.
	p := haltingLoop(t, 4_800)
	e := emu.New(p)
	e.Run(1 << 20)
	if halt := e.Retired; halt < 19_000 || halt >= 20_000 {
		t.Fatalf("program halts after %d instructions, outside the fourth period's tail", halt)
	}
	feat, _ := config.PresetByName("REC/RS/RU")
	ref, refText := sampledText(t, feat, p, 100_000, cfg)
	if len(ref.Intervals) != 3 {
		t.Fatalf("expected the truncated fourth interval dropped (3 intervals), got %d", len(ref.Intervals))
	}
	for _, workers := range []int{2, 3, 0} {
		cfg.Workers = workers
		got, gotText := sampledText(t, feat, p, 100_000, cfg)
		if gotText != refText || !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d differs from workers=1:\n%s\nvs\n%s", workers, gotText, refText)
		}
	}
}

// The interval-core reuse witness: a run whose single slot reuses one
// core, emulator image and snapshot buffer for every interval produces
// Intervals byte-identical to seeding each interval into a brand-new
// slot, for every preset.  The reference replays the checkpoint
// pass's schedule independently.
func TestReusedIntervalCoreMatchesFresh(t *testing.T) {
	mach := config.Big216()
	p := mustWorkload(t, "li")
	cfg := Config{Period: 4_000, IntervalLen: 500, WarmupLen: 500, Workers: 1}.WithDefaults()
	const maxInsts = 32_000
	progs := []*program.Program{p}
	for _, name := range []string{"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"} {
		feat, _ := config.PresetByName(name)
		t.Run(name, func(t *testing.T) {
			r, err := Run(mach, feat, p, maxInsts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := program.NewMemory(p)
			e := emu.New(p)
			master := NewWarmup(mach)
			step := func(n uint64) {
				var si emu.StepInfo
				for i := uint64(0); i < n; i++ {
					e.StepInto(&si)
					master.Observe(&si)
				}
			}
			for k := range r.Intervals {
				step(cfg.Period - cfg.IntervalLen - cfg.WarmupLen)
				fresh := &intervalSlot{k: k, cp: *Capture(e, base), warm: *master.Clone()}
				iv, err := fresh.runInterval(mach, feat, progs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				iv.Index = k
				if !reflect.DeepEqual(iv, r.Intervals[k]) {
					t.Fatalf("interval %d: reused core %+v, fresh core %+v", k, r.Intervals[k], iv)
				}
				step(cfg.WarmupLen + cfg.IntervalLen)
			}
			if len(r.Intervals) != maxInsts/4_000 {
				t.Fatalf("got %d intervals, want %d", len(r.Intervals), maxInsts/4_000)
			}
		})
	}
}

// The constant-memory budget: once a run's fixed buffers exist (master
// warmup, one snapshot buffer, core and memory image per worker), each
// further interval allocates only its result and a few small records.
// Measured as the allocation difference between a 20- and a 40-interval
// run divided by the 20 extra intervals; before slot reuse each
// interval allocated a model snapshot and a core, about 3 MB.
func TestSampledAllocBudget(t *testing.T) {
	const perIntervalBudget = 16 << 10 // bytes
	p := mustWorkload(t, "gcc")
	feat, _ := config.PresetByName("REC/RS/RU")
	cfg := Config{Period: 5_000, IntervalLen: 500, WarmupLen: 500, Workers: 1}
	alloc := func(maxInsts uint64) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(config.Big216(), feat, p, maxInsts, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(100_000) // warm package-level caches (workload images, decoders)
	short, long := alloc(100_000), alloc(200_000)
	perInterval := (int64(long) - int64(short)) / 20
	t.Logf("run allocations: %d B at 20 intervals, %d B at 40; %d B per extra interval", short, long, perInterval)
	if perInterval > perIntervalBudget {
		t.Errorf("%d B allocated per interval beyond the fixed buffers, budget %d B", perInterval, perIntervalBudget)
	}
}
