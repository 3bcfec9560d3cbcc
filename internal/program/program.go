// Package program holds loaded program images: code, initialized data,
// and the sparse data memory a running context reads and writes.  Each
// program occupies its own address space; when several programs share a
// simulated machine, the memory system tags addresses with an address
// space identifier so the physically-shared caches keep them distinct.
package program

import (
	"cmp"
	"fmt"
	"slices"

	"recyclesim/internal/isa"
)

// Default address-space layout.  Code starts at CodeBase; the data
// segment and stack live far above it so effective addresses never
// collide with instruction PCs.
const (
	CodeBase  uint64 = 0x1000
	DataBase  uint64 = 0x10_0000
	StackBase uint64 = 0x80_0000 // stacks grow down from here
)

// Program is an assembled, relocated program image.
type Program struct {
	Name   string
	Code   []isa.Inst        // Code[i] is the instruction at CodeBase + i*InstBytes
	Entry  uint64            // entry PC
	Data   map[uint64]uint64 // initial data memory (8-byte words, 8-byte aligned)
	Labels map[string]uint64 // symbol table (code labels and data symbols)
}

// PCToIndex converts a PC into a code slice index; ok is false when the
// PC is outside the program text.
func (p *Program) PCToIndex(pc uint64) (int, bool) {
	if pc < CodeBase || (pc-CodeBase)%isa.InstBytes != 0 {
		return 0, false
	}
	idx := int((pc - CodeBase) / isa.InstBytes)
	if idx >= len(p.Code) {
		return 0, false
	}
	return idx, true
}

// FetchInst returns the instruction at pc.  Fetching outside the text
// segment returns a halt so wrong-path execution stays well-defined.
func (p *Program) FetchInst(pc uint64) isa.Inst {
	if idx, ok := p.PCToIndex(pc); ok {
		return p.Code[idx]
	}
	return isa.Inst{Op: isa.OpHalt}
}

// EndPC returns the PC one instruction past the last code word.
func (p *Program) EndPC() uint64 {
	return CodeBase + uint64(len(p.Code))*isa.InstBytes
}

// Validate checks structural invariants: branch targets inside the text
// segment and aligned, entry in range.  Workload construction calls it.
func (p *Program) Validate() error {
	if _, ok := p.PCToIndex(p.Entry); !ok {
		return fmt.Errorf("program %s: entry 0x%x outside text", p.Name, p.Entry)
	}
	for idx, in := range p.Code {
		if in.IsBranch() && !in.IsIndirect() {
			if _, ok := p.PCToIndex(in.Target); !ok {
				return fmt.Errorf("program %s: inst %d (%v) targets 0x%x outside text",
					p.Name, idx, in, in.Target)
			}
		}
	}
	return nil
}

// Memory is a sparse 64-bit-word data memory.  Addresses are byte
// addresses; accesses are 8-byte, 8-byte-aligned words (the workloads
// and assembler only generate aligned traffic; unaligned addresses are
// truncated to alignment, which keeps wrong-path garbage harmless).
type Memory struct {
	words map[uint64]uint64
}

// NewMemory creates a memory initialized from the program's data image.
func NewMemory(p *Program) *Memory {
	m := &Memory{words: make(map[uint64]uint64, len(p.Data)+64)}
	m.Reset(p)
	return m
}

// Reset returns m to the program's initial data image, keeping the
// map's storage, so a memory reused across sampled intervals does not
// regrow from empty each time.
func (m *Memory) Reset(p *Program) {
	clear(m.words)
	//simlint:ignore determinism puresim -- keys land in a map again; align maps distinct keys to distinct slots, so insertion order is immaterial
	for a, v := range p.Data {
		m.words[align(a)] = v
	}
}

func align(addr uint64) uint64 { return addr &^ 7 }

// Read returns the word at addr (zero if never written).
func (m *Memory) Read(addr uint64) uint64 { return m.words[align(addr)] }

// Write stores the word at addr.
func (m *Memory) Write(addr, val uint64) { m.words[align(addr)] = val }

// Footprint returns the number of distinct words touched.
func (m *Memory) Footprint() int { return len(m.words) }

// Clone returns an independent copy of the memory (used by the golden
// emulator when co-simulating against the core).
func (m *Memory) Clone() *Memory {
	c := &Memory{words: make(map[uint64]uint64, len(m.words))}
	for a, v := range m.words {
		c.words[a] = v
	}
	return c
}

// Word is one addressed memory word; checkpoint deltas are slices of
// Words sorted by address.
type Word struct {
	Addr uint64
	Val  uint64
}

// AppendDelta appends to dst the words of m whose values differ from
// base, sorted by address, and returns the extended slice; a caller
// capturing checkpoints repeatedly reuses one buffer this way.  m must
// derive from base by writes only (memories only grow and writes never
// remove words, so m's key set is a superset of the keys it shares
// with base); the delta applied to a clone of base with Apply
// reproduces m exactly.
func (m *Memory) AppendDelta(dst []Word, base *Memory) []Word {
	n := len(dst)
	//simlint:ignore determinism puresim -- the delta is sorted by address immediately below
	for a, v := range m.words {
		if base.words[a] != v {
			dst = append(dst, Word{Addr: a, Val: v})
		}
	}
	slices.SortFunc(dst[n:], func(a, b Word) int { return cmp.Compare(a.Addr, b.Addr) })
	return dst
}

// Apply writes the delta words into m.
func (m *Memory) Apply(delta []Word) {
	for _, w := range delta {
		m.words[align(w.Addr)] = w.Val
	}
}
