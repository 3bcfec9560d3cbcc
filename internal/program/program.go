// Package program holds loaded program images: code, initialized data,
// and the sparse data memory a running context reads and writes.  Each
// program occupies its own address space; when several programs share a
// simulated machine, the memory system tags addresses with an address
// space identifier so the physically-shared caches keep them distinct.
package program

import (
	"fmt"

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

// haltInst is what FetchInst returns outside the text segment.
var haltInst = isa.Inst{Op: isa.OpHalt}

// FetchInst returns the instruction at pc by pointer into the text, so
// the emulator and the fetch stage read it in place instead of copying
// it out; callers must not modify it.  Fetching outside the text
// segment returns a halt so wrong-path execution stays well-defined.
func (p *Program) FetchInst(pc uint64) *isa.Inst {
	if idx, ok := p.PCToIndex(pc); ok {
		return &p.Code[idx]
	}
	return &haltInst
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
