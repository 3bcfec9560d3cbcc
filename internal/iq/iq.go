// Package iq implements the instruction queues that hold dispatched
// instructions until their register operands are ready and a functional
// unit is free.  The baseline machine has two 64-entry queues (integer
// and floating point); issue selection is oldest-first in dispatch
// order, matching the paper's baseline.
package iq

import (
	"recyclesim/internal/alist"
	"recyclesim/internal/isa"
	"recyclesim/internal/regfile"
)

// slot is one queued entry with the fields selection and squash read
// copied out at dispatch: the operand tags, the owning context and the
// sequence number.  Select walks these compact slots and dereferences
// the (large, scattered) active-list entry only for instructions whose
// operands are ready.
type slot struct {
	e          *alist.Entry
	seq        uint64
	src1, src2 regfile.PhysReg // NoReg when the operand is not waited on
	ctx        int32
}

// Queue is one instruction queue.
type Queue struct {
	cap   int
	slots []slot

	// counts caches per-context occupancy so the ICOUNT fetch and
	// rename priority policies read it in O(1) instead of scanning the
	// queue (grown on demand to the highest context id seen).
	counts []int
}

// New returns an empty queue with the given capacity.
func New(capacity int) *Queue {
	return &Queue{cap: capacity, slots: make([]slot, 0, capacity)}
}

func (q *Queue) bump(ctx, delta int) {
	for ctx >= len(q.counts) {
		q.counts = append(q.counts, 0)
	}
	q.counts[ctx] += delta
}

// Reset empties the queue without releasing its storage.
func (q *Queue) Reset() {
	clear(q.slots)
	q.slots = q.slots[:0]
	q.counts = q.counts[:0]
}

// Capacity returns the maximum occupancy.
func (q *Queue) Capacity() int { return q.cap }

// Len returns the current occupancy.
func (q *Queue) Len() int { return len(q.slots) }

// Full reports whether dispatch must stall.
func (q *Queue) Full() bool { return len(q.slots) >= q.cap }

// Push inserts a dispatched entry; it reports false when full.  The
// entry's context, sequence number and source tags are copied into the
// slot here, so they must not change while the entry is queued.  A
// store waits only on its address register (Src1): it issues on
// address readiness alone and captures its data later.
func (q *Queue) Push(e *alist.Entry) bool {
	if q.Full() {
		return false
	}
	src2 := e.Src2
	if e.Inst.IsStore() {
		src2 = regfile.NoReg
	}
	// Filled in place: a slot literal would be assembled on the stack
	// and block-copied into the queue on every dispatch.
	n := len(q.slots)
	q.slots = q.slots[:n+1] // New sized the storage to the capacity
	s := &q.slots[n]
	s.e, s.seq, s.src1, s.src2, s.ctx = e, e.Seq, e.Src1, src2, int32(e.Ctx)
	q.bump(e.Ctx, 1)
	return true
}

// Select visits, oldest-first, the entries whose source tags are ready
// in ready (indexed by physical register; NoReg counts as ready).  The
// visitor returns true to remove the entry (it issued).  Entries still
// waiting on an operand are skipped without touching their active-list
// record.  Select preserves the relative order of retained entries.
func (q *Queue) Select(ready []bool, visit func(e *alist.Entry) (remove bool)) {
	w := 0
	for i := range q.slots {
		s := &q.slots[i]
		if (s.src1 == regfile.NoReg || ready[s.src1]) &&
			(s.src2 == regfile.NoReg || ready[s.src2]) && visit(s.e) {
			q.counts[s.ctx]--
			continue
		}
		if w != i {
			q.slots[w] = *s
		}
		w++
	}
	q.truncate(w)
}

// RemoveIf deletes every entry whose (ctx, seq) matches; removed, when
// non-nil, sees each deleted entry.  It reports how many were deleted.
// Squash and issue cancellation use it; matching on the slot's cached
// fields keeps the sweep inside the queue's own storage.
func (q *Queue) RemoveIf(match func(ctx int, seq uint64) bool, removed func(e *alist.Entry)) int {
	w := 0
	for i := range q.slots {
		s := &q.slots[i]
		if match(int(s.ctx), s.seq) {
			q.counts[s.ctx]--
			if removed != nil {
				removed(s.e)
			}
			continue
		}
		if w != i {
			q.slots[w] = *s
		}
		w++
	}
	n := len(q.slots) - w
	q.truncate(w)
	return n
}

// truncate drops the slots from n on, clearing them so removed entries
// don't pin memory.
func (q *Queue) truncate(n int) {
	clear(q.slots[n:])
	q.slots = q.slots[:n]
}

// Each visits every queued entry oldest-first with the tags its slot
// cached at dispatch, without removing any; the runtime invariant
// checker uses it to audit queue membership and slot coherence.
func (q *Queue) Each(visit func(e *alist.Entry, ctx int, seq uint64, src1, src2 regfile.PhysReg)) {
	for i := range q.slots {
		s := &q.slots[i]
		visit(s.e, int(s.ctx), s.seq, s.src1, s.src2)
	}
}

// CountCtx returns the number of queued entries belonging to ctx; the
// ICOUNT fetch policy and the recycle priority counter use this.
func (q *Queue) CountCtx(ctx int) int {
	if ctx < len(q.counts) {
		return q.counts[ctx]
	}
	return 0
}

// ForClass reports which queue an instruction class dispatches to:
// true for the floating-point queue.
func ForClass(c isa.Class) bool {
	switch c {
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv, isa.ClassFPCvt:
		return true
	}
	return false
}
