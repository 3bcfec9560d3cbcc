package program

import "slices"

// Page geometry: a page holds the 512 words of one 4 KiB-aligned
// stretch of address space.
const (
	pageShift = 12
	pageWords = 1 << (pageShift - 3)
)

type page [pageWords]uint64

// zeroPage stands in for an unmapped page: the memo points reads of
// one at it, and deltas compare against it.  Nothing writes it.
var zeroPage page

func wordOf(addr uint64) uint64 { return addr >> 3 & (pageWords - 1) }

// Memory is a sparse 64-bit-word data memory.  Addresses are byte
// addresses; accesses are 8-byte, 8-byte-aligned words (the workloads
// and assembler only generate aligned traffic; unaligned addresses are
// truncated to alignment, which keeps wrong-path garbage harmless).
//
// Storage is paged.  A page is allocated by the first write into it;
// a read of an unmapped page returns zero and allocates nothing, so
// the core's wrong-path loads from arbitrary addresses cost no memory.
// Pages are kept sorted by address, which makes every walk over them
// (deltas, clones) run in address order.  A small direct-mapped memo
// of recently used page numbers, unmapped ones included, serves most
// accesses without a search: the kernels' data and stack pages fall in
// distinct memo slots, where a single last-page memo missed on 12% to
// 100% of lookups as accesses alternate between pages.
//
// The memo makes Read a write to m: a Memory must not be used from two
// goroutines at once, reads included.  Every emulator and core owns
// its memories; the shared initial image of a sampled run is only
// ever passed as AppendDelta's base, which does not touch the memo.
type Memory struct {
	keys  []uint64 // page numbers (address >> pageShift), ascending
	pages []*page  // pages[i] holds page keys[i]

	memo [memoSize]memoEntry
}

// NewMemory creates a memory initialized from the program's data image.
func NewMemory(p *Program) *Memory {
	m := &Memory{}
	m.Reset(p)
	return m
}

// Reset returns m to the program's initial data image.  It zeroes the
// pages it has rather than dropping them, so a memory reused across
// sampled intervals does not reallocate its working set each time.
func (m *Memory) Reset(p *Program) {
	for _, pg := range m.pages {
		clear(pg[:])
	}
	//simlint:ignore determinism puresim -- each data word lands in its own slot and pages are inserted in address order, so the visit order is immaterial
	for a, v := range p.Data {
		m.Write(a, v)
	}
}

// memoSize is the number of memo slots; page k uses slot k%memoSize.
const memoSize = 16

type memoEntry struct {
	key uint64
	pg  *page // nil: empty; &zeroPage: key unmapped
}

// lookup returns the memo slot for page k, refilled on a miss: the
// page, or &zeroPage when k is unmapped.
func (m *Memory) lookup(k uint64) *memoEntry {
	e := &m.memo[k%memoSize]
	if e.pg != nil && e.key == k {
		return e
	}
	e.key = k
	if i, ok := slices.BinarySearch(m.keys, k); ok {
		e.pg = m.pages[i]
	} else {
		e.pg = &zeroPage
	}
	return e
}

// Read returns the word at addr (zero if never written).
func (m *Memory) Read(addr uint64) uint64 {
	return m.lookup(addr >> pageShift).pg[wordOf(addr)]
}

// Write stores the word at addr.
func (m *Memory) Write(addr, val uint64) {
	k := addr >> pageShift
	e := m.lookup(k)
	if e.pg == &zeroPage {
		e.pg = m.mapPage(k)
	}
	e.pg[wordOf(addr)] = val
}

// mapPage allocates the zeroed page k and inserts it in address
// order.  It runs once per page over a memory's life (Reset keeps
// pages), so it is off the steady-state allocation budget.
//
//recycle:coldpath
func (m *Memory) mapPage(k uint64) *page {
	i, _ := slices.BinarySearch(m.keys, k)
	pg := new(page)
	m.keys = slices.Insert(m.keys, i, k)
	m.pages = slices.Insert(m.pages, i, pg)
	return pg
}

// Footprint returns the number of words holding a nonzero value: the
// words of the data image plus those written since, less any written
// back to zero.  (Mapped pages are not counted: a write maps a whole
// page, and Reset keeps pages mapped.)
func (m *Memory) Footprint() int {
	n := 0
	for _, pg := range m.pages {
		for _, v := range pg {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

// Clone returns an independent copy of the memory (used by the golden
// emulator when co-simulating against the core).  The copy's pages
// share one allocation.
func (m *Memory) Clone() *Memory {
	slab := make([]page, len(m.pages))
	c := &Memory{keys: slices.Clone(m.keys), pages: make([]*page, len(m.pages))}
	for i, pg := range m.pages {
		slab[i] = *pg
		c.pages[i] = &slab[i]
	}
	return c
}

// Word is one addressed memory word; checkpoint deltas are slices of
// Words sorted by address.
type Word struct {
	Addr uint64
	Val  uint64
}

// AppendDelta appends to dst, in address order, every word whose value
// in m differs from its value in base, and returns the extended slice;
// a caller capturing checkpoints repeatedly reuses one buffer this way.
// The delta applied with Apply to a memory holding base's image
// reproduces m exactly.  Pages are compared whole and only differing
// pages are scanned word by word; base's memo is not touched.
func (m *Memory) AppendDelta(dst []Word, base *Memory) []Word {
	i, j := 0, 0
	for i < len(m.keys) || j < len(base.keys) {
		switch {
		case j == len(base.keys) || i < len(m.keys) && m.keys[i] < base.keys[j]:
			dst = appendPageDelta(dst, m.keys[i], m.pages[i], &zeroPage)
			i++
		case i == len(m.keys) || base.keys[j] < m.keys[i]:
			dst = appendPageDelta(dst, base.keys[j], &zeroPage, base.pages[j])
			j++
		default:
			if *m.pages[i] != *base.pages[j] {
				dst = appendPageDelta(dst, m.keys[i], m.pages[i], base.pages[j])
			}
			i++
			j++
		}
	}
	return dst
}

// appendPageDelta appends the words of page k where have differs from
// base, in address order.
func appendPageDelta(dst []Word, k uint64, have, base *page) []Word {
	for w, v := range have {
		if v != base[w] {
			dst = append(dst, Word{Addr: k<<pageShift | uint64(w)<<3, Val: v})
		}
	}
	return dst
}

// Apply writes the delta words into m.
func (m *Memory) Apply(delta []Word) {
	for _, w := range delta {
		m.Write(w.Addr, w.Val)
	}
}
