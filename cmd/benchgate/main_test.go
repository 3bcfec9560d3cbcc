package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func doc(results map[string]map[string]float64) *Doc {
	return &Doc{Benchtime: "1x", Results: results}
}

// TestGateSkipsMissingBaseline: a benchmark present in the current run
// but absent from the committed baseline (or vice versa) must be
// skipped with a warning, not fail the gate.
func TestGateSkipsMissingBaseline(t *testing.T) {
	base := doc(map[string]map[string]float64{
		"SimulatorThroughput": {"simInsts/s": 1_000_000},
		"RemovedBench":        {"simInsts/s": 500_000},
	})
	fresh := doc(map[string]map[string]float64{
		"SimulatorThroughput": {"simInsts/s": 990_000},
		"BrandNewBench":       {"simInsts/s": 100_000},
	})
	if got := gate(base, fresh, 0.10); got != 0 {
		t.Errorf("gate = %d, want 0: missing baselines must skip, not fail", got)
	}
}

// TestGateZeroBaselineSkips: a corrupt zero/negative baseline value is
// skipped rather than dividing by zero into a spurious verdict.
func TestGateZeroBaselineSkips(t *testing.T) {
	base := doc(map[string]map[string]float64{"B": {"simInsts/s": 0}})
	fresh := doc(map[string]map[string]float64{"B": {"simInsts/s": 100}})
	if got := gate(base, fresh, 0.10); got != 0 {
		t.Errorf("gate = %d, want 0", got)
	}
}

// TestGateStillCatchesRegressions: the skip paths must not swallow a
// genuine regression on a benchmark both documents carry.
func TestGateStillCatchesRegressions(t *testing.T) {
	base := doc(map[string]map[string]float64{
		"SimulatorThroughput": {"simInsts/s": 1_000_000},
		"NewBench":            {"simInsts/s": 1},
	})
	fresh := doc(map[string]map[string]float64{
		"SimulatorThroughput": {"simInsts/s": 800_000},
	})
	if got := gate(base, fresh, 0.10); got != 1 {
		t.Errorf("gate = %d, want 1: 20%% regression must fail a 10%% gate", got)
	}
}

// TestGateCatchesAllocGrowth: B/op is gated in the opposite direction
// to throughput — growth beyond the tolerance fails, shrinking never
// does — so a fall back to per-interval snapshot allocation cannot
// pass unseen.
func TestGateCatchesAllocGrowth(t *testing.T) {
	base := doc(map[string]map[string]float64{
		"SampledThroughput/SMT": {"simInsts/s": 1_000_000, "B/op": 7_000_000},
	})
	for _, tc := range []struct {
		bop  float64
		want int
	}{
		{83_000_000, 1}, // back to a snapshot per interval
		{7_800_000, 1},  // 11% growth fails a 10% gate
		{7_600_000, 0},  // 9% growth is within it
		{1_000_000, 0},  // less allocation is never a regression
	} {
		fresh := doc(map[string]map[string]float64{
			"SampledThroughput/SMT": {"simInsts/s": 1_000_000, "B/op": tc.bop},
		})
		if got := gate(base, fresh, 0.10); got != tc.want {
			t.Errorf("B/op 7000000 -> %.0f: gate = %d, want %d", tc.bop, got, tc.want)
		}
	}
}

func TestWriteMetricsText(t *testing.T) {
	d := doc(map[string]map[string]float64{
		"B/two": {"simInsts/s": 2, "ns/op": 7.5},
		"A/one": {"simInsts/s": 1},
	})
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := writeMetricsText(path, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`bench_result{benchmark="A/one",metric="simInsts/s"} 1`,
		`bench_result{benchmark="B/two",metric="ns/op"} 7.5`,
		`bench_result{benchmark="B/two",metric="simInsts/s"} 2`,
	}, "\n") + "\n"
	if string(raw) != want {
		t.Errorf("metrics text:\n%s\nwant:\n%s", raw, want)
	}
}

func TestParseBenchStripsGOMAXPROCS(t *testing.T) {
	out := "BenchmarkSimulatorThroughput-8   2   44586794 ns/op   1346016 simInsts/s\n"
	r := parseBench(out)
	m, ok := r["SimulatorThroughput"]
	if !ok {
		t.Fatalf("parsed names: %v", r)
	}
	if m["simInsts/s"] != 1346016 {
		t.Errorf("simInsts/s = %v", m["simInsts/s"])
	}
}
