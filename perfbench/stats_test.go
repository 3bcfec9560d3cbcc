package main

import "testing"

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // the median of 19 leaves 9 beyond it
		{20, 50, true},
		{39, 50, true}, // p75 is rank 30: 9 beyond
		{40, 75, true}, // sampled-sweep: p75 at rank 30, 10 beyond
		{48, 75, true},
		{60, 75, true}, // detailed-sweep: p90 would leave 6 beyond
		{99, 75, true},
		{100, 90, true}, // service-hits: p90 at rank 90, 10 beyond
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	if got := percentile(xs, 75); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30", got)
	}
	if got := percentile(xs, 50); got != 20 {
		t.Errorf("p50 of 1..40 = %v, want 20", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 40 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
