package server

import (
	"testing"

	"recyclesim/internal/obs"
	"recyclesim/internal/stats"
)

// TestAggregateSnapshots: each Add returns a running total named
// "<label> running aggregate (<n> cells)" (the names recycled and
// cmd/experiments publish), and a returned snapshot never aliases the
// total later Adds keep mutating.
func TestAggregateSnapshots(t *testing.T) {
	a := NewAggregate("recycled")
	cell := func(committed uint64) (*stats.Sim, *obs.Metrics) {
		return &stats.Sim{Committed: committed, PerProgram: []uint64{committed}}, &obs.Metrics{}
	}
	first := a.Add(cell(10))
	second := a.Add(cell(5))
	if first.Name != "recycled running aggregate (1 cells)" || second.Name != "recycled running aggregate (2 cells)" {
		t.Errorf("names = %q, %q", first.Name, second.Name)
	}
	if first.Stats.Committed != 10 || first.Stats.PerProgram[0] != 10 {
		t.Errorf("first snapshot changed by a later Add: %+v", first.Stats)
	}
	if second.Stats.Committed != 15 || second.Stats.PerProgram[0] != 15 {
		t.Errorf("second snapshot = %+v, want 15 committed", second.Stats)
	}
	if got := NewAggregate("experiments").Add(cell(1)).Name; got != "experiments running aggregate (1 cells)" {
		t.Errorf("experiments name = %q", got)
	}
}
