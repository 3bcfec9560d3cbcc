package alist

import (
	"testing"
	"testing/quick"
	"unsafe"

	"recyclesim/internal/bpred"
	"recyclesim/internal/isa"
)

func push(t *testing.T, l *List, pc uint64) *Entry {
	t.Helper()
	e, _, ok := l.Push()
	if !ok {
		t.Fatal("push failed")
	}
	e.PC = pc
	return e
}

func TestPushCommitRetain(t *testing.T) {
	l := New(4)
	for i := 0; i < 4; i++ {
		push(t, l, uint64(0x1000+4*i))
	}
	if _, _, ok := l.Push(); ok {
		t.Fatal("push into a full window should fail")
	}
	l.CommitHead()
	// Now a push evicts the retained committed entry.
	e, evicted, ok := l.Push()
	if !ok || evicted != 0 {
		t.Fatalf("push after commit: ok=%v evicted=%d", ok, evicted)
	}
	if e.Seq != 4 {
		t.Errorf("seq = %d", e.Seq)
	}
	if l.FirstSeq() != 1 {
		t.Errorf("first seq = %d", l.FirstSeq())
	}
}

func TestAtBounds(t *testing.T) {
	l := New(4)
	push(t, l, 0x1000)
	if _, ok := l.At(0); !ok {
		t.Error("entry 0 should be retained")
	}
	if _, ok := l.At(1); ok {
		t.Error("entry 1 does not exist")
	}
}

func TestSquashFrom(t *testing.T) {
	l := New(8)
	for i := 0; i < 6; i++ {
		push(t, l, uint64(i))
	}
	l.CommitHead()
	l.CommitHead()
	var undone []uint64
	l.SquashFrom(3, func(e *Entry) { undone = append(undone, e.Seq) })
	if len(undone) != 3 || undone[0] != 5 || undone[2] != 3 {
		t.Errorf("undone = %v (want youngest-first 5,4,3)", undone)
	}
	if l.TailSeq() != 3 || l.InFlight() != 1 {
		t.Errorf("tail=%d inflight=%d", l.TailSeq(), l.InFlight())
	}
	// Squashing below the commit point must not touch committed entries.
	undone = nil
	l.SquashFrom(0, func(e *Entry) { undone = append(undone, e.Seq) })
	if len(undone) != 1 || undone[0] != 2 {
		t.Errorf("undone = %v (committed entries must survive)", undone)
	}
}

func TestSquashAll(t *testing.T) {
	l := New(8)
	for i := 0; i < 5; i++ {
		push(t, l, uint64(i))
	}
	l.CommitHead()
	n := 0
	l.SquashAll(func(*Entry) { n++ })
	if n != 4 {
		t.Errorf("squashed %d, want 4 (uncommitted only)", n)
	}
	if l.Len() != 0 || l.InFlight() != 0 {
		t.Errorf("list not empty after SquashAll: len=%d", l.Len())
	}
	// Sequence numbering resumes from the squash point (the committed
	// prefix was dropped from retention, so the tail rewinds to the
	// oldest squashed sequence).
	e, _, _ := l.Push()
	if e.Seq != l.TailSeq()-1 || e.Seq != 1 {
		t.Errorf("seq after squash-all = %d", e.Seq)
	}
}

func TestFirstPCAndFindPC(t *testing.T) {
	l := New(4)
	if _, ok := l.FirstPC(); ok {
		t.Error("empty list has no first PC")
	}
	push(t, l, 0x1000)
	push(t, l, 0x1004)
	push(t, l, 0x1000) // loop back
	if pc, _ := l.FirstPC(); pc != 0x1000 {
		t.Errorf("first pc = 0x%x", pc)
	}
	if seq, ok := l.FindPC(0x1000); !ok || seq != 0 {
		t.Errorf("FindPC oldest = %d, %v", seq, ok)
	}
	if _, ok := l.FindPC(0x2000); ok {
		t.Error("found nonexistent pc")
	}
}

func TestTraceTaken(t *testing.T) {
	e := Entry{Inst: isa.Inst{Op: isa.OpBeq}, Pred: bpred.Pred{Taken: true}}
	if !e.TraceTaken() {
		t.Error("unexecuted branch should report its prediction")
	}
	e.Executed = true
	e.Taken = false
	if e.TraceTaken() {
		t.Error("executed branch should report its outcome")
	}
}

func TestHeadAndCommitSeq(t *testing.T) {
	l := New(4)
	if _, ok := l.Head(); ok {
		t.Error("empty list has no head")
	}
	push(t, l, 1)
	push(t, l, 2)
	h, _ := l.Head()
	if h.Seq != 0 {
		t.Errorf("head seq = %d", h.Seq)
	}
	l.CommitHead()
	h, _ = l.Head()
	if h.Seq != 1 || l.CommitSeq() != 1 {
		t.Errorf("head seq = %d commitSeq = %d", h.Seq, l.CommitSeq())
	}
	if !mustAt(l, 0).Committed {
		t.Error("committed entry should be flagged")
	}
}

func mustAt(l *List, seq uint64) *Entry {
	e, ok := l.At(seq)
	if !ok {
		panic("missing entry")
	}
	return e
}

// Property: after any interleaving of pushes, commits and squashes, the
// invariants first <= commit <= tail and Len == tail-first hold, and
// every retained seq is addressable in ring slot seq % capacity.
func TestRingInvariants(t *testing.T) {
	fn := func(ops []uint8, odd bool) bool {
		l := New(8)
		if odd {
			l = New(7)
		}
		for _, op := range ops {
			if op%16 == 15 {
				l.SquashAll(func(*Entry) {})
			}
			switch op % 4 {
			case 0, 1:
				l.Push()
			case 2:
				if l.InFlight() > 0 {
					l.CommitHead()
				}
			case 3:
				if l.InFlight() > 0 {
					l.SquashFrom(l.CommitSeq()+uint64(op)%uint64(l.InFlight()), func(*Entry) {})
				}
			}
			if l.FirstSeq() > l.CommitSeq() || l.CommitSeq() > l.TailSeq() {
				return false
			}
			if l.Len() != int(l.TailSeq()-l.FirstSeq()) || l.Len() > l.Capacity() {
				return false
			}
			for s := l.FirstSeq(); s < l.TailSeq(); s++ {
				if e, ok := l.At(s); !ok || e.Seq != s || e != &l.ents[s%uint64(l.cap)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRecordSizes pins the packed layout of the per-instruction records
// the cycle loop touches: a reordering that re-scatters the bools shows
// up here before it shows up as lost throughput.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(bpred.Pred{}); got != 32 {
		t.Errorf("bpred.Pred is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Entry{}); got != 160 {
		t.Errorf("alist.Entry is %d bytes, want 160", got)
	}
}
