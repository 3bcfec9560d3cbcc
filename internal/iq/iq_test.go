package iq

import (
	"slices"
	"testing"

	"recyclesim/internal/alist"
	"recyclesim/internal/isa"
	"recyclesim/internal/regfile"
)

func ent(ctx int, seq uint64) *alist.Entry {
	return &alist.Entry{Ctx: ctx, Seq: seq, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1},
		Src1: regfile.NoReg, Src2: regfile.NoReg}
}

// srcs returns an ALU entry waiting on physical registers s1 and s2.
func srcs(ctx int, seq uint64, s1, s2 regfile.PhysReg) *alist.Entry {
	e := ent(ctx, seq)
	e.Src1, e.Src2 = s1, s2
	return e
}

// seqs lists the queued entries' sequence numbers oldest-first.
func seqs(q *Queue) []uint64 {
	var out []uint64
	q.Each(func(e *alist.Entry, _ int, _ uint64, _, _ regfile.PhysReg) {
		out = append(out, e.Seq)
	})
	return out
}

// checkCounts verifies CountCtx against a recount of the queue.
func checkCounts(t *testing.T, q *Queue, ctxs int) {
	t.Helper()
	want := make([]int, ctxs)
	q.Each(func(e *alist.Entry, _ int, _ uint64, _, _ regfile.PhysReg) { want[e.Ctx]++ })
	for c := 0; c < ctxs; c++ {
		if got := q.CountCtx(c); got != want[c] {
			t.Errorf("CountCtx(%d) = %d, queue holds %d", c, got, want[c])
		}
	}
}

// checkTailCleared verifies that no slot beyond the occupancy still
// points at an entry.
func checkTailCleared(t *testing.T, q *Queue) {
	t.Helper()
	for i, s := range q.slots[len(q.slots):cap(q.slots)] {
		if s != (slot{}) {
			t.Errorf("slot %d beyond len %d not cleared: %+v", len(q.slots)+i, len(q.slots), s)
		}
	}
}

func TestPushFull(t *testing.T) {
	q := New(2)
	if !q.Push(ent(0, 0)) || !q.Push(ent(0, 1)) {
		t.Fatal("push into non-full queue failed")
	}
	if q.Push(ent(0, 2)) {
		t.Fatal("push into full queue succeeded")
	}
	if !q.Full() || q.Len() != 2 || q.Capacity() != 2 {
		t.Errorf("len=%d cap=%d", q.Len(), q.Capacity())
	}
}

// TestSelectVisitsOnlyTagReady: entries waiting on a not-ready tag are
// never handed to the visitor; ready ones are visited oldest-first,
// and whatever stays keeps its dispatch order.
func TestSelectVisitsOnlyTagReady(t *testing.T) {
	ready := make([]bool, 8)
	ready[1], ready[2] = true, true
	q := New(8)
	q.Push(srcs(0, 0, 1, regfile.NoReg)) // ready
	q.Push(srcs(0, 1, 3, regfile.NoReg)) // waits on p3
	q.Push(srcs(1, 2, 1, 2))             // ready
	q.Push(srcs(1, 3, 2, 4))             // waits on p4
	q.Push(srcs(0, 4, regfile.NoReg, 2)) // ready
	q.Push(srcs(0, 5, 1, 2))             // ready, visitor declines

	var visited []uint64
	q.Select(ready, func(e *alist.Entry) bool {
		visited = append(visited, e.Seq)
		return e.Seq != 5
	})
	if want := []uint64{0, 2, 4, 5}; !slices.Equal(visited, want) {
		t.Errorf("visited %v, want %v", visited, want)
	}
	if got, want := seqs(q), []uint64{1, 3, 5}; !slices.Equal(got, want) {
		t.Errorf("retained %v, want %v", got, want)
	}
	checkCounts(t, q, 2)
	checkTailCleared(t, q)

	// Once the missing tags arrive the waiters issue, oldest first.
	ready[3], ready[4] = true, true
	visited = visited[:0]
	q.Select(ready, func(e *alist.Entry) bool {
		visited = append(visited, e.Seq)
		return true
	})
	if want := []uint64{1, 3, 5}; !slices.Equal(visited, want) {
		t.Errorf("second select visited %v, want %v", visited, want)
	}
	if q.Len() != 0 {
		t.Errorf("len = %d after everything issued", q.Len())
	}
	checkCounts(t, q, 2)
	checkTailCleared(t, q)
}

// TestSelectStoreWaitsOnAddressOnly: a store issues on its address
// register (Src1) alone; its data register (Src2) is captured later.
func TestSelectStoreWaitsOnAddressOnly(t *testing.T) {
	ready := make([]bool, 4)
	st := srcs(0, 0, 1, 2)
	st.Inst = isa.Inst{Op: isa.OpSt, Rs1: 3, Rs2: 4}
	q := New(4)
	q.Push(st)
	q.Each(func(_ *alist.Entry, _ int, _ uint64, _, src2 regfile.PhysReg) {
		if src2 != regfile.NoReg {
			t.Errorf("store slot waits on data tag p%d", src2)
		}
	})

	n := 0
	visit := func(*alist.Entry) bool { n++; return true }
	q.Select(ready, visit)
	if n != 0 {
		t.Fatal("store visited before its address register was ready")
	}
	ready[1] = true // address ready, data (p2) still pending
	q.Select(ready, visit)
	if n != 1 || q.Len() != 0 {
		t.Errorf("store with ready address: visits=%d len=%d", n, q.Len())
	}
}

// TestRemoveIfAndCountCtx keeps the per-context occupancy exact through
// Push, Select, RemoveIf and Reset.
func TestRemoveIfAndCountCtx(t *testing.T) {
	ready := []bool{true, false}
	q := New(16)
	for i := 0; i < 12; i++ {
		q.Push(srcs(i%3, uint64(i), regfile.PhysReg(i%2), regfile.NoReg))
	}
	checkCounts(t, q, 3)

	// Issue ready ctx-1 entries only.
	q.Select(ready, func(e *alist.Entry) bool { return e.Ctx == 1 })
	checkCounts(t, q, 3)
	checkTailCleared(t, q)

	// Squash ctx 0 from seq 6 on, observing each removed entry.
	var removed []uint64
	n := q.RemoveIf(func(ctx int, seq uint64) bool { return ctx == 0 && seq >= 6 },
		func(e *alist.Entry) { removed = append(removed, e.Seq) })
	if want := []uint64{6, 9}; n != len(want) || !slices.Equal(removed, want) {
		t.Errorf("RemoveIf removed %d %v, want %v", n, removed, want)
	}
	checkCounts(t, q, 3)
	checkTailCleared(t, q)
	if got, want := seqs(q), []uint64{0, 1, 2, 3, 5, 7, 8, 11}; !slices.Equal(got, want) {
		t.Errorf("after select+squash queue holds %v, want %v", got, want)
	}

	q.Reset()
	if q.Len() != 0 {
		t.Errorf("len = %d after Reset", q.Len())
	}
	checkCounts(t, q, 3)
	checkTailCleared(t, q)
}

func TestForClass(t *testing.T) {
	if ForClass(isa.ClassIntALU) || ForClass(isa.ClassLoad) || ForClass(isa.ClassBranch) {
		t.Error("integer classes must go to the integer queue")
	}
	if !ForClass(isa.ClassFPAdd) || !ForClass(isa.ClassFPDiv) || !ForClass(isa.ClassFPCvt) {
		t.Error("fp classes must go to the fp queue")
	}
}
