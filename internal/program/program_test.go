package program

import (
	"testing"
	"testing/quick"

	"recyclesim/internal/isa"
)

func prog2() *Program {
	return &Program{
		Name:  "t",
		Code:  []isa.Inst{{Op: isa.OpNop}, {Op: isa.OpHalt}},
		Entry: CodeBase,
	}
}

func TestPCToIndex(t *testing.T) {
	p := prog2()
	if i, ok := p.PCToIndex(CodeBase); !ok || i != 0 {
		t.Errorf("entry index: %d %v", i, ok)
	}
	if i, ok := p.PCToIndex(CodeBase + isa.InstBytes); !ok || i != 1 {
		t.Errorf("second index: %d %v", i, ok)
	}
	if _, ok := p.PCToIndex(CodeBase + 2*isa.InstBytes); ok {
		t.Error("past-end PC resolved")
	}
	if _, ok := p.PCToIndex(CodeBase + 1); ok {
		t.Error("misaligned PC resolved")
	}
	if _, ok := p.PCToIndex(0); ok {
		t.Error("below-base PC resolved")
	}
}

func TestFetchOutsideTextIsHalt(t *testing.T) {
	p := prog2()
	if !p.FetchInst(0xDEAD00).IsHalt() {
		t.Error("wrong-path fetch outside text must be a halt")
	}
	if p.EndPC() != CodeBase+2*isa.InstBytes {
		t.Errorf("end pc = 0x%x", p.EndPC())
	}
}

func TestValidate(t *testing.T) {
	p := prog2()
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	p.Entry = 0
	if err := p.Validate(); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	p := prog2()
	p.Data = map[uint64]uint64{DataBase: 7}
	m := NewMemory(p)
	if m.Read(DataBase) != 7 {
		t.Error("initial data missing")
	}
	if m.Read(DataBase+8) != 0 {
		t.Error("untouched word should read zero")
	}
	m.Write(DataBase+16, 9)
	if m.Read(DataBase+16) != 9 {
		t.Error("write lost")
	}
	// Unaligned accesses truncate to the containing word.
	m.Write(DataBase+17, 11)
	if m.Read(DataBase+16) != 11 || m.Read(DataBase+23) != 11 {
		t.Error("alignment truncation broken")
	}
	// Two distinct words touched: DataBase (init) and DataBase+16
	// (the +17 write aliases the +16 word).
	if m.Footprint() != 2 {
		t.Errorf("footprint = %d", m.Footprint())
	}
}

func TestMemoryCloneIndependent(t *testing.T) {
	p := prog2()
	m := NewMemory(p)
	m.Write(0x100, 1)
	c := m.Clone()
	c.Write(0x100, 2)
	if m.Read(0x100) != 1 || c.Read(0x100) != 2 {
		t.Error("clone aliases the original")
	}
}

// Property: a write followed by a read of any address within the same
// aligned word returns the written value.
func TestMemoryWordSemantics(t *testing.T) {
	m := NewMemory(prog2())
	fn := func(addr uint64, val uint64, off uint8) bool {
		m.Write(addr, val)
		return m.Read(addr&^7+uint64(off%8)) == val
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Delta against the initial image must be sorted by address, contain
// exactly the changed words, and reproduce the memory via Apply.
func TestMemoryDeltaApplyRoundTrip(t *testing.T) {
	p := prog2()
	p.Data = map[uint64]uint64{DataBase: 7, DataBase + 8: 9}
	base := NewMemory(p)
	m := NewMemory(p)
	m.Write(DataBase, 100)   // changed word
	m.Write(DataBase+8, 9)   // written back to its initial value: not in the delta
	m.Write(StackBase-16, 5) // new word
	m.Write(0x4000, 1)       // new word, lower address
	delta := m.AppendDelta(nil, base)
	want := []Word{{0x4000, 1}, {DataBase, 100}, {StackBase - 16, 5}}
	if len(delta) != len(want) {
		t.Fatalf("delta %v, want %v", delta, want)
	}
	for i := range want {
		if delta[i] != want[i] {
			t.Fatalf("delta[%d] = %+v, want %+v", i, delta[i], want[i])
		}
	}
	// Appending into a used buffer keeps its prefix and sorts only the
	// appended words.
	prefix := []Word{{0x9000, 1}}
	if got := m.AppendDelta(prefix, base); len(got) != 4 || got[0] != prefix[0] || got[1] != want[0] {
		t.Errorf("AppendDelta into a used buffer = %v", got)
	}

	// Restore into a fresh image and into a dirtied one that Reset
	// returns to the initial image.
	dirty := m.Clone()
	dirty.Write(0x5000, 3)
	dirty.Reset(p)
	for _, r := range []*Memory{NewMemory(p), dirty} {
		r.Apply(delta)
		for _, a := range []uint64{DataBase, DataBase + 8, StackBase - 16, 0x4000, 0x5000, 0x9999} {
			if r.Read(a) != m.Read(a) {
				t.Errorf("addr 0x%x: restored %d != original %d", a, r.Read(a), m.Read(a))
			}
		}
		if r.Footprint() != m.Footprint() {
			t.Errorf("footprint %d != %d", r.Footprint(), m.Footprint())
		}
	}
}

// An unchanged memory has an empty delta.
func TestMemoryDeltaEmpty(t *testing.T) {
	p := prog2()
	p.Data = map[uint64]uint64{DataBase: 3}
	if d := NewMemory(p).AppendDelta(nil, NewMemory(p)); len(d) != 0 {
		t.Errorf("fresh memory delta = %v, want empty", d)
	}
}
