package sweep

import (
	"sync/atomic"
	"testing"
)

func TestRunCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		Run(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	Run(0, 4, func(int) { t.Error("job called for n=0") })
	Run(-3, 4, func(int) { t.Error("job called for n<0") })
}

func TestRunResultsMatchSerial(t *testing.T) {
	const n = 50
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	got := make([]int, n)
	Run(n, 8, func(i int) { got[i] = i * i })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// Stream consumes every produced item exactly once, never holds more
// than `slots` items, and never refills a slot whose item is still
// being consumed.
func TestStreamBoundedSlots(t *testing.T) {
	for _, slots := range []int{1, 2, 3, 8} {
		const n = 200
		item := make([]int, slots) // slot -> item index it holds
		busy := make([]atomic.Bool, slots)
		var hits [n]atomic.Int32
		var live, peak atomic.Int32
		produced := 0
		Stream(slots, func(s int) bool {
			if produced == n {
				return false
			}
			if busy[s].Load() {
				t.Errorf("slots=%d: slot %d refilled while its item is consumed", slots, s)
			}
			busy[s].Store(true)
			item[s] = produced
			produced++
			if l := live.Add(1); l > peak.Load() {
				peak.Store(l)
			}
			return true
		}, func(s int) {
			hits[item[s]].Add(1)
			live.Add(-1)
			busy[s].Store(false)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("slots=%d: item %d consumed %d times", slots, i, got)
			}
		}
		if p := peak.Load(); p > int32(slots) {
			t.Errorf("slots=%d: %d items alive at once", slots, p)
		}
	}
}

func TestStreamEmpty(t *testing.T) {
	Stream(4, func(int) bool { return false }, func(int) { t.Error("consume called with nothing produced") })
}

// Serial's callers take turns: a plain counter behind it survives
// concurrent calls (run under -race, this pins the claim).
func TestSerial(t *testing.T) {
	if Serial(nil) != nil {
		t.Fatal("Serial(nil) is not nil")
	}
	calls := 0
	f := Serial(func() error { calls++; return nil })
	Run(400, 4, func(int) { _ = f() })
	if calls != 400 {
		t.Errorf("calls = %d, want 400", calls)
	}
}
