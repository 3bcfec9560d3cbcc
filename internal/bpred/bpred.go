// Package bpred implements the paper's branch prediction hardware: a
// decoupled branch target buffer (BTB) and pattern history table (PHT)
// in the style of Calder & Grunwald, with the PHT indexed by the XOR of
// the branch address and a global history register (gshare, per
// McFarling), plus a per-context return address stack.
//
// Sizes follow §4.1 of the paper: 256-entry 4-way BTB, 2K x 2-bit PHT,
// 12-entry return stack per context.
package bpred

import (
	"fmt"
	"math/bits"

	"recyclesim/internal/isa"
)

// Config sizes the predictor structures.
type Config struct {
	PHTEntries int // pattern history table entries (power of two)
	BTBEntries int // total BTB entries
	BTBAssoc   int // BTB associativity
	RASEntries int // return address stack depth per context
	HistBits   int // global history register width per context
	Contexts   int // hardware contexts (history and RAS are per context)
}

// Default returns the paper's configuration for n hardware contexts.
func Default(n int) Config {
	return Config{
		PHTEntries: 2048,
		BTBEntries: 256,
		BTBAssoc:   4,
		RASEntries: 12,
		HistBits:   11,
		Contexts:   n,
	}
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// Predictor is the shared branch prediction unit.  PHT and BTB are
// shared between contexts; the global history register and the return
// stack are private to each context, as in SMT designs of the era.
// The PHT size and the BTB set count are powers of two (New checks),
// so table indexing is by mask and shift.  Lookup, SpecUpdate, Restore
// and Commit take the instruction by pointer and only read it, so
// callers pass it in place (from the program text, a fetch-queue or an
// active-list entry) instead of copying it per call.
type Predictor struct {
	cfg         Config
	pht         []uint8 // 2-bit saturating counters
	phtMask     uint64  // PHTEntries-1
	btb         []btbEntry
	btbSetMask  uint64 // BTB sets-1: instruction index to set
	btbSetShift uint   // log2(BTB sets): instruction index to tag
	lruClock    uint64

	hist   []uint64   // per-context global history
	ras    [][]uint64 // per-context return stacks
	rasTop []int      // per-context stack pointer (index of next push)
}

// New builds a predictor with weakly-taken counters.  It panics when
// the PHT size or the BTB set count (BTBEntries/BTBAssoc) is not a
// power of two, since configurations are static and a bad one is a
// programming error.
func New(cfg Config) *Predictor {
	if cfg.BTBAssoc <= 0 {
		panic(fmt.Sprintf("bpred: bad geometry: BTB associativity %d", cfg.BTBAssoc))
	}
	btbSets := cfg.BTBEntries / cfg.BTBAssoc
	if !isPow2(cfg.PHTEntries) || !isPow2(btbSets) {
		panic(fmt.Sprintf("bpred: bad geometry: PHT entries %d and BTB sets %d must be powers of two",
			cfg.PHTEntries, btbSets))
	}
	p := &Predictor{
		cfg:         cfg,
		pht:         make([]uint8, cfg.PHTEntries),
		phtMask:     uint64(cfg.PHTEntries - 1),
		btb:         make([]btbEntry, cfg.BTBEntries),
		btbSetMask:  uint64(btbSets - 1),
		btbSetShift: uint(bits.TrailingZeros(uint(btbSets))),
		hist:        make([]uint64, cfg.Contexts),
		ras:         make([][]uint64, cfg.Contexts),
		rasTop:      make([]int, cfg.Contexts),
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	for c := range p.ras {
		p.ras[c] = make([]uint64, cfg.RASEntries)
	}
	return p
}

// Clone returns a deep copy of the predictor: tables, per-context
// history, and return stacks.  Sampled simulation snapshots the
// functionally warmed predictor at each measurement point so parallel
// intervals can train private copies without perturbing one another.
func (p *Predictor) Clone() *Predictor {
	q := &Predictor{}
	p.CloneInto(q)
	return q
}

// CloneInto makes dst a deep copy of p, reusing dst's tables and
// return stacks when they are large enough; a zero Predictor is a
// valid dst.
func (p *Predictor) CloneInto(dst *Predictor) {
	pht, btb, hist, rasTop := dst.pht, dst.btb, dst.hist, dst.rasTop
	ras := dst.ras[:cap(dst.ras)]
	*dst = *p
	dst.pht = append(pht[:0], p.pht...)
	dst.btb = append(btb[:0], p.btb...)
	dst.hist = append(hist[:0], p.hist...)
	dst.rasTop = append(rasTop[:0], p.rasTop...)
	dst.ras = ras[:0]
	for c, stack := range p.ras {
		var buf []uint64
		if c < len(ras) {
			buf = ras[c]
		}
		dst.ras = append(dst.ras, append(buf[:0], stack...))
	}
}

// Pred is a prediction plus the recovery state the pipeline must carry
// with the branch so prediction structures can be repaired on a squash
// and trained on commit.  The bools sit together at the end so the
// record packs into 32 bytes (it is copied into every fetch-queue and
// active-list entry).
type Pred struct {
	Target  uint64
	GHist   uint64 // history value used for the PHT index
	RASTop  int    // return-stack pointer before this instruction
	Taken   bool
	BTBMiss bool // indirect jump found no BTB entry (fell through)
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func (p *Predictor) phtIndex(pc, hist uint64) int {
	return int((pc/isa.InstBytes ^ hist) & p.phtMask)
}

// btbSet returns the first slot of pc's BTB set and pc's tag.
func (p *Predictor) btbSet(pc uint64) (base int, tag uint64) {
	idx := pc / isa.InstBytes
	return int(idx&p.btbSetMask) * p.cfg.BTBAssoc, idx >> p.btbSetShift
}

// Lookup predicts the direction and target of a control transfer at pc
// in context ctx.  The decoded instruction supplies direct targets (the
// simulator's instruction store plays the role of a perfect decoder);
// indirect non-return jumps consult the BTB, returns consult the RAS.
// Lookup does not change any predictor state.
func (p *Predictor) Lookup(ctx int, pc uint64, in *isa.Inst) Pred {
	pr := Pred{GHist: p.hist[ctx], RASTop: p.rasTop[ctx]}
	switch {
	case in.IsCondBranch():
		ctr := p.pht[p.phtIndex(pc, pr.GHist)]
		pr.Taken = ctr >= 2
		pr.Target = in.Target
	case in.IsReturn():
		pr.Taken = true
		pr.Target = p.rasPeek(ctx)
	case in.IsIndirect():
		pr.Taken = true
		if t, ok := p.btbLookup(pc); ok {
			pr.Target = t
		} else {
			pr.Target = pc + isa.InstBytes // no target known: fall through
			pr.BTBMiss = true
		}
	case in.IsBranch(): // direct jump or call
		pr.Taken = true
		pr.Target = in.Target
	}
	return pr
}

// SpecUpdate applies the speculative effects of fetching a control
// transfer: the predicted direction is shifted into the context's
// global history and calls/returns adjust the return stack.
func (p *Predictor) SpecUpdate(ctx int, in *isa.Inst, pc uint64, pr Pred) {
	if in.IsCondBranch() {
		p.pushHist(ctx, pr.Taken)
	}
	if in.IsCall() {
		p.rasPush(ctx, pc+isa.InstBytes)
	} else if in.IsReturn() {
		p.rasPop(ctx)
	}
}

// ForceHist overwrites the context's speculative global history; used
// when recycled branches carry their trace's prediction ("the global
// history register ... is then updated with that prediction").
func (p *Predictor) ForceHist(ctx int, hist uint64) { p.hist[ctx] = hist }

// Hist returns the context's current speculative global history.
func (p *Predictor) Hist(ctx int) uint64 { return p.hist[ctx] }

// PushHist shifts one resolved/predicted direction into the context's
// history (exported for the recycle path, which bypasses Lookup).
func (p *Predictor) PushHist(ctx int, taken bool) { p.pushHist(ctx, taken) }

// Restore rewinds a context's speculative history and return stack to
// the recovery state captured with a mispredicted branch, then shifts
// in the branch's true outcome when it was conditional.
func (p *Predictor) Restore(ctx int, in *isa.Inst, pr Pred, actualTaken bool) {
	p.hist[ctx] = pr.GHist
	p.rasTop[ctx] = pr.RASTop
	if in.IsCondBranch() {
		p.pushHist(ctx, actualTaken)
	}
	if in.IsCall() {
		p.rasPush(ctx, 0) // target re-pushed by redirected fetch; keep depth
	} else if in.IsReturn() {
		p.rasPop(ctx)
	}
}

// CopyContext duplicates context src's history and return stack into
// dst; TME uses it when spawning an alternate path so the spawned
// thread predicts as the primary would have.  The alternate takes the
// opposite direction of the forked branch, which the caller records by
// pushing the flipped outcome afterwards.
func (p *Predictor) CopyContext(dst, src int) {
	p.hist[dst] = p.hist[src]
	copy(p.ras[dst], p.ras[src])
	p.rasTop[dst] = p.rasTop[src]
}

// Commit trains the PHT and BTB with a resolved, committed branch.
func (p *Predictor) Commit(pc uint64, in *isa.Inst, pr Pred, taken bool, target uint64) {
	if in.IsCondBranch() {
		idx := p.phtIndex(pc, pr.GHist)
		if taken {
			if p.pht[idx] < 3 {
				p.pht[idx]++
			}
		} else if p.pht[idx] > 0 {
			p.pht[idx]--
		}
	}
	if in.IsIndirect() && !in.IsReturn() && taken {
		p.btbInsert(pc, target)
	}
}

func (p *Predictor) pushHist(ctx int, taken bool) {
	h := p.hist[ctx] << 1
	if taken {
		h |= 1
	}
	p.hist[ctx] = h & ((1 << uint(p.cfg.HistBits)) - 1)
}

func (p *Predictor) rasPush(ctx int, addr uint64) {
	top := p.rasTop[ctx]
	p.ras[ctx][top%p.cfg.RASEntries] = addr
	p.rasTop[ctx] = top + 1
}

func (p *Predictor) rasPop(ctx int) {
	if p.rasTop[ctx] > 0 {
		p.rasTop[ctx]--
	}
}

func (p *Predictor) rasPeek(ctx int) uint64 {
	top := p.rasTop[ctx]
	if top == 0 {
		return 0
	}
	return p.ras[ctx][(top-1)%p.cfg.RASEntries]
}

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	base, tag := p.btbSet(pc)
	for w := 0; w < p.cfg.BTBAssoc; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == tag {
			p.lruClock++
			e.lru = p.lruClock
			return e.target, true
		}
	}
	return 0, false
}

func (p *Predictor) btbInsert(pc, target uint64) {
	base, tag := p.btbSet(pc)
	victim := base
	for w := 0; w < p.cfg.BTBAssoc; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == tag {
			victim = base + w
			break
		}
		if !e.valid {
			victim = base + w
			break
		}
		if e.lru < p.btb[victim].lru {
			victim = base + w
		}
	}
	p.lruClock++
	p.btb[victim] = btbEntry{valid: true, tag: tag, target: target, lru: p.lruClock}
}
