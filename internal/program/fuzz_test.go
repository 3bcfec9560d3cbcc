package program

import (
	"encoding/binary"
	"maps"
	"slices"
	"testing"
)

// refMemory is the differential reference for Memory: a plain map of
// aligned words, absent meaning zero.
type refMemory map[uint64]uint64

func refImage(p *Program) refMemory {
	r := refMemory{}
	for a, v := range p.Data {
		r[a&^7] = v
	}
	return r
}

func (r refMemory) read(addr uint64) uint64 { return r[addr&^7] }

// delta is every word whose value differs between r and base, sorted by
// address: the specification of AppendDelta.
func (r refMemory) delta(base refMemory) []Word {
	var addrs []uint64
	for _, src := range []refMemory{r, base} {
		for a := range src {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	var out []Word
	for _, a := range slices.Compact(addrs) {
		if r[a] != base[a] {
			out = append(out, Word{Addr: a, Val: r[a]})
		}
	}
	return out
}

func (r refMemory) footprint() int {
	n := 0
	for _, v := range r {
		if v != 0 {
			n++
		}
	}
	return n
}

// fuzzOps reads the fuzzer's bytes as a stream of operands, yielding
// zeros once the input runs out.
type fuzzOps struct{ data []byte }

func (o *fuzzOps) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *fuzzOps) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], o.data)
	o.data = o.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// addr decodes an address near one of a few far-apart regions (the
// data segment, the stack, page and word boundaries at both ends of
// the address space) or anywhere at all, at any byte alignment.
func (o *fuzzOps) addr() uint64 {
	sel := o.byte()
	off := uint64(o.byte()) | uint64(o.byte())<<8
	switch sel % 6 {
	case 0:
		return DataBase + off
	case 1:
		return StackBase - 1 - off
	case 2:
		return off
	case 3:
		return ^uint64(0) - off
	case 4:
		return 1<<40 + off<<4 // spans several pages
	default:
		return o.u64()
	}
}

// FuzzMemory runs a decoded sequence of Write, Read, Reset, Apply,
// AppendDelta and Clone calls against the paged Memory and a
// map-backed reference, and asserts equal reads, identical deltas and
// equal footprints.  The memory under test starts empty and is diffed
// against the image of a program whose data words the input also
// chooses, so deltas cover pages either side lacks.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 7, 0, 0, 0, 0, 0, 0, 0, 4, 4, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{data: data}
		p := &Program{Name: "fuzz", Data: map[uint64]uint64{}}
		for n := ops.byte() % 8; n > 0; n-- {
			p.Data[ops.addr()&^7] = ops.u64()
		}
		empty := &Program{Name: "empty"}
		base, refBase := NewMemory(p), refImage(p)
		m, ref := NewMemory(empty), refMemory{}
		var touched []uint64
		var buf []Word
		check := func(what string) {
			t.Helper()
			for _, a := range touched {
				if got, want := m.Read(a), ref.read(a); got != want {
					t.Fatalf("after %s: Read(0x%x) = %d, reference %d", what, a, got, want)
				}
			}
			if got, want := m.Footprint(), ref.footprint(); got != want {
				t.Fatalf("after %s: Footprint() = %d, reference %d", what, got, want)
			}
		}
		for steps := 0; len(ops.data) > 0 && steps < 256; steps++ {
			switch ops.byte() % 6 {
			case 0:
				a, v := ops.addr(), ops.u64()
				touched = append(touched, a)
				m.Write(a, v)
				ref[a&^7] = v
			case 1:
				a := ops.addr()
				touched = append(touched, a)
				if got, want := m.Read(a), ref.read(a); got != want {
					t.Fatalf("Read(0x%x) = %d, reference %d", a, got, want)
				}
			case 2:
				src := empty
				if ops.byte()&1 != 0 {
					src = p
				}
				m.Reset(src)
				ref = refImage(src)
				check("Reset")
			case 3:
				// Append after a prefix that must survive untouched.
				prefix := Word{Addr: ops.u64(), Val: ops.u64()}
				buf = m.AppendDelta(append(buf[:0], prefix), base)
				want := ref.delta(refBase)
				if buf[0] != prefix || !slices.Equal(buf[1:], want) {
					t.Fatalf("AppendDelta = %v, reference %v after prefix %v", buf, want, prefix)
				}
				// The delta applied to the base image rebuilds m.
				r := base.Clone()
				r.Apply(buf[1:])
				if d := r.AppendDelta(nil, m); len(d) != 0 {
					t.Fatalf("base + delta differs from the memory at %v", d)
				}
			case 4:
				var delta []Word
				for n := ops.byte() % 8; n > 0; n-- {
					w := Word{Addr: ops.addr(), Val: ops.u64()}
					delta = append(delta, w)
					touched = append(touched, w.Addr)
					ref[w.Addr&^7] = w.Val
				}
				m.Apply(delta)
				check("Apply")
			case 5:
				// The clone carries on; the original is scribbled over
				// to show the two share nothing.
				c := m.Clone()
				for _, a := range touched {
					m.Write(a, ^ref.read(a))
				}
				m, ref = c, maps.Clone(ref)
				check("Clone")
			}
		}
		check("the last step")
		// Base is only ever a delta's reference; it must be unchanged.
		for a, v := range refBase {
			if base.Read(a) != v {
				t.Fatalf("base image changed at 0x%x", a)
			}
		}
	})
}
