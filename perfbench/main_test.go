package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics a run prints in
// step with the ones BENCHMARK.json declares, names and units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  []metricName
	}{
		{"end_to_end", b.EndToEnd, endToEnd},
		{"per_layer", b.PerLayer, perLayer},
	} {
		if len(tc.declared) != len(tc.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", tc.kind, len(tc.declared), len(tc.printed))
			continue
		}
		for i, d := range tc.declared {
			if p := tc.printed[i]; p.name != d.Name || p.unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", tc.kind, i, d.Name, d.Unit, p.name, p.unit)
			}
		}
	}
}
