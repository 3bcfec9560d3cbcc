package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"recyclesim"
	"recyclesim/internal/config"
	"recyclesim/internal/fleet"
	"recyclesim/internal/store"
)

// poisonedRunner builds a runner whose middle cell names a workload
// that does not exist, so its cell fails at program construction.
func poisonedRunner(keepGoing bool) *runner {
	r := newRunner()
	r.keepGoing = keepGoing
	cell := func(names ...string) store.Cell {
		return store.Cell{Machine: config.Big216(), Features: config.SMT, Workloads: names, Insts: 2_000}
	}
	r.cells = []store.Cell{cell("compress"), cell("nonesuch"), cell("li")}
	return r
}

// TestComputeAllKeepGoing: with -keep-going the poisoned cell records
// its error and zero stats while every healthy cell still completes.
func TestComputeAllKeepGoing(t *testing.T) {
	r := poisonedRunner(true)
	r.computeAll(context.Background(), 2)
	if r.errs[1] == nil {
		t.Fatal("poisoned cell recorded no error")
	}
	if r.recs[1] == nil || r.recs[1].Stats.Committed != 0 {
		t.Error("poisoned cell must print as zeros")
	}
	for _, i := range []int{0, 2} {
		if r.errs[i] != nil {
			t.Errorf("healthy cell %d failed: %v", i, r.errs[i])
		}
		if r.recs[i].Stats.Committed < 2_000 {
			t.Errorf("healthy cell %d committed %d", i, r.recs[i].Stats.Committed)
		}
	}
	failed := r.failedCells()
	if len(failed) != 1 || !strings.Contains(failed[0], "nonesuch") {
		t.Errorf("failure summary %q", failed)
	}
}

// TestComputeAllFailFast: without -keep-going the first failure
// cancels the remaining cells (serial pool makes the order exact; the
// budgets are large enough that every cell crosses the poll cadence).
func TestComputeAllFailFast(t *testing.T) {
	r := poisonedRunner(false)
	r.cells[0], r.cells[1] = r.cells[1], r.cells[0] // poison first
	for i := range r.cells {
		r.cells[i].Insts = 100_000
	}
	r.computeAll(context.Background(), 1)
	if r.errs[0] == nil {
		t.Fatal("poisoned cell recorded no error")
	}
	for _, i := range []int{1, 2} {
		if !errors.Is(r.errs[i], recyclesim.ErrCanceled) {
			t.Errorf("cell %d after failure: err %v, want ErrCanceled", i, r.errs[i])
		}
	}
}

// TestComputeAllRestoresFromCheckpoint: a second sweep over the same
// cells and the same -checkpoint store must restore every result
// without simulating — zero computes by the store's own counters — and
// the restored statistics must be byte-identical.
func TestComputeAllRestoresFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	run := func() (*runner, store.Counters) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := newRunner()
		r.store = st
		r.cells = []store.Cell{
			{Machine: config.Big216(), Features: config.RECRSRU, Workloads: []string{"compress"}, Insts: 2_000},
			{Machine: config.Big18(), Features: config.TME, Workloads: []string{"li"}, Insts: 2_000},
		}
		r.computeAll(context.Background(), 2)
		return r, st.Counters()
	}
	first, c1 := run()
	second, c2 := run()
	if c1.Computes != 2 || c1.DiskHits != 0 {
		t.Errorf("first sweep counters %+v, want 2 computes", c1)
	}
	if c2.Computes != 0 || c2.DiskHits != 2 {
		t.Errorf("resumed sweep counters %+v, want 2 disk hits and 0 computes", c2)
	}
	if n := second.nRestored.Load(); n != 2 {
		t.Errorf("resumed sweep restored %d cells, want 2", n)
	}
	for i := range first.recs {
		a := fmt.Sprintf("%+v", *first.recs[i].Stats)
		b := fmt.Sprintf("%+v", *second.recs[i].Stats)
		if a != b {
			t.Errorf("cell %d: restored stats differ from computed:\n %s\n %s", i, a, b)
		}
	}
}

// sampledCell is the runner's sampled cell for one compress run under
// the given schedule.
func sampledCell(s store.Sampling, insts uint64) store.Cell {
	r := newRunner()
	r.sampling = &s
	r.simSampled(config.Big216(), config.RECRSRU, []string{"compress"}, insts)
	return r.cells[0]
}

func mustKey(t *testing.T, c store.Cell) string {
	t.Helper()
	key, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// sampledJSON executes c and returns its SampledResult as JSON, the
// bytes a store record would hold.
func sampledJSON(t *testing.T, c store.Cell) string {
	t.Helper()
	rec, err := fleet.Execute(context.Background(), c)
	if err != nil {
		t.Fatalf("execute %s: %v", c.Name(), err)
	}
	raw, err := json.Marshal(rec.Sampled)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestJournalKeysNeverCollideAcrossFlags: the cell key (the address of
// a -checkpoint store record) must change whenever an identity-bearing
// flag changes — sampling schedule, confidence level, or detailed vs.
// sampled mode — so a record written under one configuration is never
// replayed for another.  (Regression: the journal this store replaced
// once omitted the confidence level, so resuming a -sampled sweep after
// changing -confidence replayed stale IPCLo/IPCHi/CPIHalf bounds under
// the new label.)  An unset field and its spelled-out default share a
// key by design; the run is byte-identical either way, which is what
// makes sharing the record sound.
func TestJournalKeysNeverCollideAcrossFlags(t *testing.T) {
	detailed := store.Cell{Machine: config.Big216(), Features: config.RECRSRU, Workloads: []string{"compress"}, Insts: 20_000}
	sched := store.Sampling{Period: 4_000, IntervalLen: 400, WarmupLen: 400}
	with := func(mutate func(*store.Sampling)) string {
		s := sched
		mutate(&s)
		return mustKey(t, sampledCell(s, 20_000))
	}
	variants := []struct {
		name string
		key  string
	}{
		{"detailed", mustKey(t, detailed)},
		{"sampled default confidence", with(func(*store.Sampling) {})},
		{"sampled confidence 0.99", with(func(s *store.Sampling) { s.Confidence = 0.99 })},
		{"sampled confidence 0.90", with(func(s *store.Sampling) { s.Confidence = 0.90 })},
		{"sampled other period", with(func(s *store.Sampling) { s.Period = 8_000 })},
		{"sampled other interval", with(func(s *store.Sampling) { s.IntervalLen = 800 })},
		{"sampled other warmup", with(func(s *store.Sampling) { s.WarmupLen = 800 })},
	}
	for i, a := range variants {
		for _, b := range variants[i+1:] {
			if a.key == b.key {
				t.Errorf("%s and %s share cell key %q", a.name, b.name, a.key)
			}
		}
	}

	// Shared by design: confidence unset vs. 0.95, and an all-zero
	// schedule vs. the defaults spelled out.
	if a, b := with(func(*store.Sampling) {}), with(func(s *store.Sampling) { s.Confidence = 0.95 }); a != b {
		t.Errorf("unset confidence and 0.95 key differently: %q vs %q", a, b)
	}
	zero := sampledCell(store.Sampling{}, 60_000)
	spelled := sampledCell(store.Sampling{Period: 20_000, IntervalLen: 1_000, WarmupLen: 1_000, Confidence: 0.95}, 60_000)
	if a, b := mustKey(t, zero), mustKey(t, spelled); a != b {
		t.Errorf("zero schedule and spelled-out defaults key differently: %q vs %q", a, b)
	}
	if a, b := sampledJSON(t, zero), sampledJSON(t, spelled); a != b {
		t.Errorf("zero schedule and spelled-out defaults share a key but not a result:\n %s\n %s", a, b)
	}
}

// TestSampledJournalNotReplayedAcrossFlagChanges: a sampled cell stored
// under one schedule/confidence must be restored only by a sweep whose
// flags key the same cell; any identity change misses and resimulates.
// Leaving the confidence unset keys like its default, 0.95, and the
// two runs are byte-identical, so that replay is correct.
func TestSampledJournalNotReplayedAcrossFlagChanges(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := store.Sampling{Period: 4_000, IntervalLen: 400, WarmupLen: 400, Confidence: 0.95}
	if err := st.Put(mustKey(t, sampledCell(base, 20_000)), &store.Record{Sampled: &recyclesim.SampledResult{IPC: 1.5}}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		mutate     func(*store.Sampling)
		wantReplay bool
	}{
		{"identical flags", func(*store.Sampling) {}, true},
		{"changed confidence", func(s *store.Sampling) { s.Confidence = 0.99 }, false},
		{"default (unset) confidence", func(s *store.Sampling) { s.Confidence = 0 }, true},
		{"changed period", func(s *store.Sampling) { s.Period = 8_000 }, false},
		{"changed interval", func(s *store.Sampling) { s.IntervalLen = 800 }, false},
		{"changed warmup", func(s *store.Sampling) { s.WarmupLen = 800 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mutate(&s)
			c := sampledCell(s, 20_000)
			_, ok := st.Get(mustKey(t, c))
			if ok != tc.wantReplay {
				t.Errorf("replay = %v, want %v (key %q)", ok, tc.wantReplay, mustKey(t, c))
			}
			if ok && s != base {
				if a, b := sampledJSON(t, c), sampledJSON(t, sampledCell(base, 20_000)); a != b {
					t.Errorf("replayed across %s, but the runs differ:\n %s\n %s", tc.name, a, b)
				}
			}
		})
	}

	// The detailed cell of the same configuration must never see the
	// sampled record either.
	detailed := store.Cell{Machine: config.Big216(), Features: config.RECRSRU, Workloads: []string{"compress"}, Insts: 20_000}
	if _, ok := st.Get(mustKey(t, detailed)); ok {
		t.Error("detailed cell key collides with a sampled record")
	}
}
