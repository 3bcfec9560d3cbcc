package server

import (
	"fmt"
	"sync"

	"recyclesim/internal/obs"
	"recyclesim/internal/stats"
)

// Aggregate is a running total over finished detailed cells, the feed
// a sweep or job server Publishes to /metrics.  Safe for concurrent
// use.
type Aggregate struct {
	label string

	mu    sync.Mutex
	stats stats.Sim
	tel   obs.Metrics
	cells int
}

// NewAggregate builds an empty total whose snapshots are named
// "<label> running aggregate (<n> cells)".
func NewAggregate(label string) *Aggregate { return &Aggregate{label: label} }

// Add folds one cell's statistics and telemetry into the total and
// returns an immutable snapshot of it.
func (a *Aggregate) Add(s *stats.Sim, m *obs.Metrics) *obs.Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Add(s)
	a.tel.Add(m)
	a.cells++
	st := a.stats
	st.PerProgram = append([]uint64(nil), a.stats.PerProgram...)
	tel := a.tel
	return &obs.Snapshot{
		Name:    fmt.Sprintf("%s running aggregate (%d cells)", a.label, a.cells),
		Stats:   &st,
		Metrics: &tel,
	}
}
