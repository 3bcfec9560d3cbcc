package recycle

// MDB is the Memory Disambiguation Buffer of §3.5: it records (load PC,
// effective address) pairs when loads execute.  A store to a matching
// address removes the pairs for that address.  At recycle time a load
// may reuse its old value only if its pair is still present, proving no
// intervening store touched the address.
//
// The buffer has finite capacity with FIFO replacement; evicting an
// entry merely forfeits a reuse opportunity (never correctness).
// Addresses are tagged with the address-space identifier by the caller,
// so programs sharing the machine never alias.
type MDB struct {
	cap   int
	fifo  []mdbEntry
	index map[uint64]int // (pc,addr) key -> position count (presence)
}

type mdbEntry struct {
	pc, addr uint64
	valid    bool
}

func mdbKey(pc, addr uint64) uint64 {
	// pc and addr live in disjoint, low-entropy ranges; a mixed key
	// keeps the map collision-free for realistic traces.
	return pc*0x9E3779B97F4A7C15 ^ addr
}

// NewMDB builds a buffer holding up to capacity load entries.
func NewMDB(capacity int) *MDB {
	return &MDB{
		cap:   capacity,
		fifo:  make([]mdbEntry, 0, capacity),
		index: make(map[uint64]int, capacity),
	}
}

// Reset empties the buffer without releasing its storage.
func (m *MDB) Reset() {
	m.fifo = m.fifo[:0]
	clear(m.index)
}

// InsertLoad records an executed load.  Re-inserting the same (pc,
// addr) refreshes the entry.
func (m *MDB) InsertLoad(pc, addr uint64) {
	key := mdbKey(pc, addr)
	if m.index[key] > 0 {
		return
	}
	if len(m.fifo) >= m.cap {
		old := m.fifo[0]
		m.fifo = m.fifo[1:]
		if old.valid {
			k := mdbKey(old.pc, old.addr)
			if m.index[k]--; m.index[k] <= 0 {
				delete(m.index, k)
			}
		}
	}
	m.fifo = append(m.fifo, mdbEntry{pc: pc, addr: addr, valid: true})
	m.index[key]++
}

// StoreTo invalidates every load entry whose address matches: "If the
// store finds its address in the MDB, the load PC and address are
// removed."
func (m *MDB) StoreTo(addr uint64) {
	for i := range m.fifo {
		e := &m.fifo[i]
		if e.valid && e.addr == addr {
			k := mdbKey(e.pc, e.addr)
			if m.index[k]--; m.index[k] <= 0 {
				delete(m.index, k)
			}
			e.valid = false
		}
	}
}

// Reusable reports whether the load at pc with the given address is
// still present, i.e. its old value may be reused.
func (m *MDB) Reusable(pc, addr uint64) bool {
	return m.index[mdbKey(pc, addr)] > 0
}

// Len returns the number of live entries (tests).
func (m *MDB) Len() int {
	n := 0
	for _, e := range m.fifo {
		if e.valid {
			n++
		}
	}
	return n
}
