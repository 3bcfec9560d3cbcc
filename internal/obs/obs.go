// Package obs is the simulator's observability layer: typed pipeline
// events with a fixed-size flight-recorder ring, per-cause stall
// attribution for every rename slot-cycle, and small fixed-bucket
// histograms of the structures the paper's analysis leans on (active
// list occupancy, recycle stream length, fork lifetime).
//
// Everything here is allocation-free in steady state: events are plain
// value structs written into a preallocated ring, the attribution
// counters are a fixed array indexed by cause, and the histograms are
// fixed arrays of power-of-two buckets.  The exporters (export.go)
// allocate, but they run once per simulation, not per cycle.
//
// The attribution identity the invariant checker enforces: every cycle
// the machine runs, each of its RenameWidth pipeline slots is charged
// to exactly one Cause, so
//
//	Σ over causes of SlotCycles[cause] == Cycles × RenameWidth
//
// holds at all times.  See DESIGN.md "Pipeline telemetry" for the
// taxonomy.
package obs

import (
	"math/bits"
	"strings"
)

// Stage identifies the pipeline stage (or lifecycle transition) an
// Event describes.
type Stage uint8

// Event stages.  The lifecycle stages (Merge and later) mirror the
// transitions of §2-§3 of the paper: forks, merges, respawns,
// promotions, squashes, and context reclaim.
const (
	StageFetch Stage = iota
	StageRename
	StageIssue
	StageComplete
	StageCommit
	StageStall
	StageMerge
	StageFork
	StageRespawn
	StageReclaim
	StagePromote
	StageReinstate
	StageSquash
	StageKill
	StageHalt

	numStages
)

// String names the stage for dumps and exports.
func (s Stage) String() string {
	switch s {
	case StageFetch:
		return "fetch"
	case StageRename:
		return "rename"
	case StageIssue:
		return "issue"
	case StageComplete:
		return "complete"
	case StageCommit:
		return "commit"
	case StageStall:
		return "stall"
	case StageMerge:
		return "merge"
	case StageFork:
		return "fork"
	case StageRespawn:
		return "respawn"
	case StageReclaim:
		return "reclaim"
	case StagePromote:
		return "promote"
	case StageReinstate:
		return "reinstate"
	case StageSquash:
		return "squash"
	case StageKill:
		return "kill"
	case StageHalt:
		return "halt"
	}
	return "stage?"
}

// Cause classifies what a rename slot-cycle was spent on.  The busy
// causes (CauseBusyFetch, CauseRecycle) are slots that renamed an
// instruction; the rest attribute unused slots to the resource that
// blocked them, or to idleness when nothing was waiting.
type Cause uint8

// Slot-cycle causes.  Every slot of every cycle is charged to exactly
// one of these.
const (
	// CauseNone marks events that carry no attribution (and is never a
	// valid slot charge).
	CauseNone Cause = iota
	// CauseBusyFetch: the slot renamed an instruction from the fetch
	// path.
	CauseBusyFetch
	// CauseRecycle: the slot renamed an instruction injected through
	// the recycle datapath.
	CauseRecycle
	// CauseICacheMiss: slots idled while every fetchable thread was
	// stalled on an instruction-cache fill.
	CauseICacheMiss
	// CauseRenameRegs: rename stalled on an empty physical-register
	// free list.
	CauseRenameRegs
	// CauseRenameAL: rename stalled on a full active list.
	CauseRenameAL
	// CauseIQFull: rename stalled on a full instruction queue.
	CauseIQFull
	// CauseIdle: no instructions were available and nothing specific
	// was blocking (front-end latency, drained programs, empty fetch
	// queues).
	CauseIdle

	// NumCauses sizes the attribution array.
	NumCauses
)

// String names the cause for dumps and exports.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseBusyFetch:
		return "busy_fetch"
	case CauseRecycle:
		return "recycle_inject"
	case CauseICacheMiss:
		return "icache_miss"
	case CauseRenameRegs:
		return "rename_free_list"
	case CauseRenameAL:
		return "active_list_full"
	case CauseIQFull:
		return "iq_full"
	case CauseIdle:
		return "idle"
	}
	return "cause?"
}

// Event is one typed pipeline event.  The meaning of Seq, PC and Arg
// depends on the stage; String renders the generic form and DESIGN.md
// tabulates the per-stage conventions.
type Event struct {
	Cycle uint64
	Seq   uint64
	PC    uint64
	Arg   uint64
	Stage Stage
	Cause Cause
	Ctx   int16
}

// String renders the event as a single debug line.
func (e Event) String() string {
	s := "cyc=" + utoa(e.Cycle) + " " + e.Stage.String() + " ctx=" + itoa(int64(e.Ctx))
	if e.Cause != CauseNone {
		s += " cause=" + e.Cause.String()
	}
	s += " seq=" + utoa(e.Seq) + " pc=0x" + htoa(e.PC) + " arg=" + utoa(e.Arg)
	return s
}

// utoa/itoa/htoa format integers without fmt so Event.String stays off
// the reflection path (dumps render thousands of events).
func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func itoa(v int64) string {
	if v < 0 {
		return "-" + utoa(uint64(-v))
	}
	return utoa(uint64(v))
}

func htoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	const digits = "0123456789abcdef"
	var b [16]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = digits[v&0xF]
		v >>= 4
	}
	return string(b[i:])
}

// Ring is the flight recorder: a fixed-size ring of the most recent
// events.  Recording never allocates; when the ring is full the oldest
// event is overwritten.  The zero Ring is not usable — construct with
// NewRing.
type Ring struct {
	buf  []Event
	mask uint64
	n    uint64 // total events ever recorded
}

// NewRing builds a flight recorder holding the last size events (size
// is rounded up to a power of two, minimum 16).
func NewRing(size int) *Ring {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Ring{buf: make([]Event, n), mask: uint64(n) - 1}
}

// Record appends one event, overwriting the oldest when full.  It is
// called from inside the cycle loop whenever a ring is attached, so it
// is on the steady-state allocation budget (//recycle:hotpath).
//
//recycle:hotpath
func (r *Ring) Record(e Event) {
	r.buf[r.n&r.mask] = e
	r.n++
}

// Len reports how many events the ring currently retains.
func (r *Ring) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Total reports how many events were ever recorded (including those
// overwritten).
func (r *Ring) Total() uint64 { return r.n }

// Events returns the retained events oldest-first.  It allocates and is
// meant for dumps and exports, not the cycle loop.
func (r *Ring) Events() []Event {
	n := uint64(r.Len())
	out := make([]Event, 0, n)
	for i := r.n - n; i < r.n; i++ {
		out = append(out, r.buf[i&r.mask])
	}
	return out
}

// Dump renders the retained events oldest-first under a "flight
// recorder" header: the one rendering behind machine-state dumps and
// crash reports.  It is nil-safe and returns "" when nothing was
// recorded.
func (r *Ring) Dump() string {
	if r == nil || r.Len() == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("flight recorder (last " + itoa(int64(r.Len())) + " of " + utoa(r.Total()) + " events):\n")
	for _, e := range r.Events() {
		b.WriteString("  " + e.String() + "\n")
	}
	return b.String()
}

// histBuckets is the bucket count of every histogram: power-of-two
// buckets 0, 1, 2-3, 4-7, ... 8192-16383, plus a final overflow bucket.
const histBuckets = 16

// Hist is a fixed-bucket histogram of uint64 samples.  Bucket i (i <
// 15) counts samples whose bit length is i, i.e. values in
// [2^(i-1), 2^i - 1]; bucket 15 counts everything from 16384 up.
// Observing never allocates.
type Hist struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Add accumulates other into h.
func (h *Hist) Add(other *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// Mean returns the average sample, 0 when empty.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// BucketUpper returns the inclusive upper bound of bucket i, and false
// for the unbounded overflow bucket.
func BucketUpper(i int) (uint64, bool) {
	if i >= histBuckets-1 {
		return 0, false
	}
	return 1<<uint(i) - 1, true
}

// Metrics is the always-on telemetry of one simulation: the stall
// attribution array plus the histograms.  The attribution counters are
// unconditionally maintained by the core (they cost a few adds per
// cycle); histogram sampling is gated by Hists because the per-cycle
// occupancy walk is measurable at full simulation speed.
type Metrics struct {
	// Hists enables histogram sampling (set before the run starts).
	Hists bool

	// SlotCycles[cause] counts rename slot-cycles charged to cause.
	// The invariant checker enforces Σ == Cycles × RenameWidth.
	SlotCycles [NumCauses]uint64

	// ALOcc samples the total uncommitted active-list occupancy across
	// all contexts, once per cycle.
	ALOcc Hist
	// StreamLen samples the length of every recycle stream at build
	// time (post-truncation, so what actually injects).
	StreamLen Hist
	// ForkLife samples the cycles between an alternate path's spawn
	// and its deletion.
	ForkLife Hist
}

// Add accumulates other into m (multi-run aggregation).
func (m *Metrics) Add(other *Metrics) {
	m.Hists = m.Hists || other.Hists
	for i := range m.SlotCycles {
		m.SlotCycles[i] += other.SlotCycles[i]
	}
	m.ALOcc.Add(&other.ALOcc)
	m.StreamLen.Add(&other.StreamLen)
	m.ForkLife.Add(&other.ForkLife)
}

// TotalSlotCycles sums the attribution array (the left side of the
// identity).
func (m *Metrics) TotalSlotCycles() uint64 {
	var sum uint64
	for _, v := range m.SlotCycles {
		sum += v
	}
	return sum
}

// SlotFraction returns the fraction of all attributed slot-cycles
// charged to cause, 0 when nothing has been attributed.
func (m *Metrics) SlotFraction(c Cause) float64 {
	total := m.TotalSlotCycles()
	if total == 0 {
		return 0
	}
	return float64(m.SlotCycles[c]) / float64(total)
}
