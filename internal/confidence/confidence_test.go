package confidence

import (
	"fmt"
	"strings"
	"testing"
)

func TestColdIsLowConfidence(t *testing.T) {
	e := New(Default())
	if e.HighConfidence(0x1000, 0) {
		t.Error("cold branches must be low confidence (fork candidates)")
	}
}

func TestWarmsToHighConfidence(t *testing.T) {
	cfg := Default()
	e := New(cfg)
	for i := 0; i < cfg.Threshold; i++ {
		if e.HighConfidence(0x1000, 0) {
			t.Fatalf("high confidence after only %d correct predictions", i)
		}
		e.Update(0x1000, 0, true)
	}
	if !e.HighConfidence(0x1000, 0) {
		t.Error("threshold correct predictions should reach high confidence")
	}
}

func TestMispredictResets(t *testing.T) {
	cfg := Default()
	e := New(cfg)
	for i := 0; i < cfg.Max; i++ {
		e.Update(0x1000, 0, true)
	}
	if e.Counter(0x1000) != cfg.Max {
		t.Errorf("counter saturation: %d", e.Counter(0x1000))
	}
	e.Update(0x1000, 0, false)
	if e.Counter(0x1000) != 0 || e.HighConfidence(0x1000, 0) {
		t.Error("a mispredict must reset the counter to low confidence")
	}
}

func TestPCIndexedNotHistoryIndexed(t *testing.T) {
	e := New(Default())
	for i := 0; i < 10; i++ {
		e.Update(0x1000, uint64(i), true) // varying history
	}
	// All updates must have landed on the same counter.
	if !e.HighConfidence(0x1000, 0xFFFF) {
		t.Error("confidence must be independent of history")
	}
}

func TestSeparateBranches(t *testing.T) {
	e := New(Default())
	for i := 0; i < 10; i++ {
		e.Update(0x1000, 0, true)
	}
	// 0x1004 is the adjacent table entry (0x2000 would alias 0x1000 in
	// a 1024-entry table).
	if e.HighConfidence(0x1004, 0) {
		t.Error("training one branch must not warm another")
	}
}

func TestTableAliasing(t *testing.T) {
	cfg := Config{Entries: 4, Max: 15, Threshold: 4}
	e := New(cfg)
	// PCs 4 instructions apart land in different entries; PCs
	// Entries*4 bytes apart alias.
	for i := 0; i < 10; i++ {
		e.Update(0x1000, 0, true)
	}
	alias := uint64(0x1000 + 4*4)
	if !e.HighConfidence(alias, 0) {
		t.Error("aliasing PCs share a counter in a tiny table")
	}
}

// The table is indexed by mask, so New rejects a size that is not a
// power of two.
func TestGeometryPowerOfTwo(t *testing.T) {
	for _, tc := range []struct {
		entries int
		ok      bool
	}{
		{1024, true}, {4, true}, {1, true}, {1000, false}, {0, false}, {-4, false},
	} {
		t.Run(fmt.Sprint(tc.entries), func(t *testing.T) {
			defer func() {
				r := recover()
				switch {
				case tc.ok && r != nil:
					t.Errorf("panicked: %v", r)
				case !tc.ok && r == nil:
					t.Error("accepted")
				case !tc.ok && !strings.HasPrefix(fmt.Sprint(r), "confidence: bad geometry"):
					t.Errorf("panic %q, want the bad-geometry message", r)
				}
			}()
			New(Config{Entries: tc.entries, Max: 15, Threshold: 4})
		})
	}
}
