package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"recyclesim/internal/bpred"
	"recyclesim/internal/cache"
	"recyclesim/internal/confidence"
	"recyclesim/internal/config"
	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
	"recyclesim/internal/obs"
	"recyclesim/internal/program"
	"recyclesim/internal/stats"
	"recyclesim/internal/workload"
)

// seededCosim fast-forwards a program ffInsts instructions on the
// golden emulator, seeds a detailed core from the resulting
// architectural state, and checks that the seeded core's commit stream
// exactly continues the emulator's execution.
func seededCosim(t *testing.T, mach config.Machine, feat config.Features, p *program.Program, ffInsts, maxInsts uint64) {
	t.Helper()
	e := emu.New(p)
	e.Run(ffInsts)
	if e.Halted {
		t.Fatalf("%s halted during fast-forward", p.Name)
	}
	// The reference emulator clones the memory because the core adopts
	// the fast-forwarded image.
	ref := &emu.Emulator{Prog: p, Mem: e.Mem.Clone(), PC: e.PC, Regs: e.Regs, Retired: e.Retired}
	seed := &ArchState{PC: e.PC, Regs: e.Regs, Mem: e.Mem}
	c, err := NewSeeded(mach, feat, []*program.Program{p}, []*ArchState{seed}, Models{})
	if err != nil {
		t.Fatalf("NewSeeded: %v", err)
	}
	mismatches := 0
	c.CommitHook = func(ci CommitInfo) {
		got := ref.Step()
		if mismatches > 3 {
			return
		}
		fail := func(field string, want, have interface{}) {
			mismatches++
			t.Errorf("%s/%s seeded@%d commit #%d pc=0x%x inst=%v: %s mismatch: emulator %v, core %v",
				p.Name, config.FeatureName(feat), ffInsts, ref.Retired,
				ci.PC, ci.Inst, field, want, have)
		}
		switch {
		case got.PC != ci.PC:
			fail("pc", got.PC, ci.PC)
		case got.Inst != ci.Inst:
			fail("inst", got.Inst, ci.Inst)
		case ci.Inst.WritesReg() && got.Result != ci.Result:
			fail("result", got.Result, ci.Result)
		case ci.Inst.IsMem() && got.Addr != ci.Addr:
			fail("addr", got.Addr, ci.Addr)
		case ci.Inst.IsBranch() && got.Taken != ci.Taken:
			fail("taken", got.Taken, ci.Taken)
		}
	}
	if _, err := c.Run(maxInsts, 40*maxInsts+10_000); err != nil {
		t.Fatalf("%s/%s seeded@%d: %v", p.Name, config.FeatureName(feat), ffInsts, err)
	}
	if c.Stats.Committed == 0 {
		t.Fatalf("%s/%s seeded@%d: nothing committed", p.Name, config.FeatureName(feat), ffInsts)
	}
}

// The master seeded-correctness invariant: a core seeded from any
// mid-program point commits exactly what the emulator executes from
// that point, for every workload, with the full feature set and plain
// SMT.
func TestSeededCosim(t *testing.T) {
	for _, bench := range workload.Names {
		for _, preset := range []string{"SMT", "REC/RS/RU"} {
			bench, preset := bench, preset
			t.Run(bench+"/"+preset, func(t *testing.T) {
				feat, _ := config.PresetByName(preset)
				p, err := workload.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				seededCosim(t, config.Big216(), feat, p, 25_000, 8_000)
			})
		}
	}
}

// A nil-seed NewSeeded must behave exactly like New.
func TestNewSeededNilSeedsMatchesNew(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	run := func(build func() (*Core, error)) *Core {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(5_000, 40*5_000); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := run(func() (*Core, error) { return New(config.Big216(), config.RECRSRU, []*program.Program{p}) })
	b := run(func() (*Core, error) {
		return NewSeeded(config.Big216(), config.RECRSRU, []*program.Program{p}, nil, Models{})
	})
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Committed != b.Stats.Committed ||
		a.Stats.Recycled != b.Stats.Recycled || a.Stats.Mispredicts != b.Stats.Mispredicts {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestNewSeededValidation(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	progs := []*program.Program{p}
	if _, err := NewSeeded(config.Big216(), config.SMT, progs, []*ArchState{nil, nil}, Models{}); err == nil {
		t.Error("seed/program count mismatch accepted")
	}
	if _, err := NewSeeded(config.Big216(), config.SMT, progs, []*ArchState{{PC: 0x3}}, Models{}); err == nil {
		t.Error("out-of-text seed PC accepted")
	}
	bad := &ArchState{PC: p.Entry}
	bad.Regs[isa.RegZero] = 1
	if _, err := NewSeeded(config.Big216(), config.SMT, progs, []*ArchState{bad}, Models{}); err == nil {
		t.Error("nonzero zero-register seed accepted")
	}
}

// Handing NewSeeded freshly built default models must not change the
// run at all: the supplied models are exactly what New builds itself.
func TestSeededFreshModelsMatchNew(t *testing.T) {
	p, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	mach := config.Big216()
	run := func(m Models) *Core {
		c, err := NewSeeded(mach, config.RECRSRU, []*program.Program{p}, nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(5_000, 40*5_000); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := run(Models{})
	b := run(Models{
		Pred: bpred.New(bpred.Default(mach.Contexts)),
		Conf: confidence.New(confidence.Default()),
		Mem:  cache.NewHierarchy(cache.DefaultHierarchy(mach.CacheScale)),
	})
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("fresh-model injection perturbed the run: %+v vs %+v", a.Stats, b.Stats)
	}
}

// The core-reuse witness: a core reseeded after an unrelated run —
// different programs and features, trained models — holds exactly the
// state of a freshly built one, field by field, and then runs exactly
// like it, for every preset.  Statistics, telemetry and the committed
// stream are all compared.
func TestReseedMatchesFresh(t *testing.T) {
	mach := config.Big216()
	first, err := workload.ByName("su2cor")
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	e.Run(20_000)
	seedFor := func() []*ArchState {
		return []*ArchState{{PC: e.PC, Regs: e.Regs, Mem: e.Mem.Clone()}}
	}
	type outcome struct {
		stats   stats.Sim
		obs     obs.Metrics
		commits []CommitInfo
	}
	run := func(c *Core) outcome {
		var out outcome
		c.CommitHook = func(ci CommitInfo) { out.commits = append(out.commits, ci) }
		if _, err := c.Run(4_000, 40*4_000); err != nil {
			t.Fatal(err)
		}
		out.stats, out.obs = *c.Stats, *c.Obs
		return out
	}
	for _, name := range []string{"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"} {
		feat, _ := config.PresetByName(name)
		t.Run(name, func(t *testing.T) {
			fresh, err := NewSeeded(mach, feat, []*program.Program{p}, seedFor(), Models{})
			if err != nil {
				t.Fatal(err)
			}
			want := run(fresh)

			reused, err := New(mach, config.RECRSRU, []*program.Program{first, p})
			if err != nil {
				t.Fatal(err)
			}
			reused.Obs.Hists = true
			if _, err := reused.Run(6_000, 40*6_000); err != nil {
				t.Fatal(err)
			}
			if err := reused.Reseed(feat, []*program.Program{p}, seedFor(), Models{}); err != nil {
				t.Fatal(err)
			}
			fresh, err = NewSeeded(mach, feat, []*program.Program{p}, seedFor(), Models{})
			if err != nil {
				t.Fatal(err)
			}
			if path := stateDiff(reflect.ValueOf(reused), reflect.ValueOf(fresh), "core", map[[2]uintptr]bool{}); path != "" {
				t.Fatalf("reseeded core differs from a fresh one at %s", path)
			}
			got := run(reused)
			if !reflect.DeepEqual(got.stats, want.stats) || got.obs != want.obs {
				t.Errorf("reseeded core diverged:\n got %+v\nwant %+v", got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.commits, want.commits) {
				t.Errorf("reseeded core committed a different stream (%d vs %d commits)",
					len(got.commits), len(want.commits))
			}
		})
	}
}

// stateDiff walks two values field by field — unexported fields,
// pointers, slices and maps included — and returns the path of the
// first difference, or "" when they hold the same state.  Unlike
// reflect.DeepEqual it treats a nil slice or map as equal to an empty
// one: that is storage a reused structure keeps, not state.
func stateDiff(a, b reflect.Value, path string, seen map[[2]uintptr]bool) string {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + " (nil)"
			}
			return ""
		}
		if a.Kind() == reflect.Pointer {
			k := [2]uintptr{a.Pointer(), b.Pointer()}
			if seen[k] {
				return ""
			}
			seen[k] = true
		}
		return stateDiff(a.Elem(), b.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := stateDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, seen); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path + " (len)"
		}
		for i := 0; i < a.Len(); i++ {
			if d := stateDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return path + " (len)"
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]", path, it.Key())
			}
			if d := stateDiff(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key()), seen); d != "" {
				return d
			}
		}
	case reflect.Func:
		if !a.IsNil() || !b.IsNil() {
			return path + " (func set)"
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return path
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
	case reflect.String:
		if a.String() != b.String() {
			return path
		}
	default:
		return path + " (unhandled kind " + a.Kind().String() + ")"
	}
	return ""
}

// A rejected Reseed leaves the core as it was.
func TestReseedValidation(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(config.Big216(), config.SMT, []*program.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(1_000, 40_000); err != nil {
		t.Fatal(err)
	}
	before := *c.Stats
	bad := &ArchState{PC: 0x3}
	if err := c.Reseed(config.SMT, []*program.Program{p}, []*ArchState{bad}, Models{}); err == nil {
		t.Error("out-of-text seed PC accepted")
	}
	if err := c.Reseed(config.SMT, nil, nil, Models{}); err == nil {
		t.Error("empty program list accepted")
	}
	if !reflect.DeepEqual(*c.Stats, before) {
		t.Error("rejected Reseed modified the core")
	}
}

// Every design point builds the models the core constructs for it:
// the power-of-two geometry checks in cache.New, bpred.New and
// confidence.New accept each machine's cache scaling and context count.
func TestEveryMachineBuildsModels(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for name, mach := range config.Machines() {
		c, err := New(mach, config.RECRSRU, []*program.Program{p})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.pred == nil || c.conf == nil || c.mem == nil {
			t.Fatalf("%s: core built without its models", name)
		}
		if got, want := c.mem.IL1.Sets(), 1024/mach.CacheScale; got != want {
			t.Errorf("%s: IL1 has %d sets, want %d", name, got, want)
		}
	}
}
