package sample

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"recyclesim/internal/emu"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// roundTrip pushes a checkpoint through one encode/decode cycle.
func roundTrip(t *testing.T, cp *Checkpoint, encode func(*Checkpoint, *bytes.Buffer) error, decode func(*bytes.Buffer) (*Checkpoint, error)) *Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := encode(cp, &buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Determinism: encoding the same checkpoint twice is byte-identical.
	var buf2 bytes.Buffer
	if err := encode(cp, &buf2); err != nil {
		t.Fatalf("encode (2nd): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
	got, err := decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// The master checkpoint invariant, for every workload and both
// encodings: Checkpoint -> encode -> decode -> Restore -> continue
// must produce a commit stream byte-identical to the uninterrupted
// emulator.
func TestCheckpointRoundTripEveryWorkload(t *testing.T) {
	codecs := []struct {
		name   string
		encode func(*Checkpoint, *bytes.Buffer) error
		decode func(*bytes.Buffer) (*Checkpoint, error)
	}{
		{"binary", func(cp *Checkpoint, b *bytes.Buffer) error { return cp.EncodeBinary(b) },
			func(b *bytes.Buffer) (*Checkpoint, error) { return DecodeBinary(b) }},
		{"json", func(cp *Checkpoint, b *bytes.Buffer) error { return cp.EncodeJSON(b) },
			func(b *bytes.Buffer) (*Checkpoint, error) { return DecodeJSON(b) }},
	}
	for _, bench := range workload.Names {
		for _, codec := range codecs {
			bench, codec := bench, codec
			t.Run(bench+"/"+codec.name, func(t *testing.T) {
				p, err := workload.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				base := program.NewMemory(p)
				ref := emu.New(p)
				ref.Run(30_000)

				cp := roundTrip(t, Capture(ref, base), codec.encode, codec.decode)
				e, err := cp.Restore(p)
				if err != nil {
					t.Fatal(err)
				}
				if e.PC != ref.PC || e.Retired != ref.Retired || e.Regs != ref.Regs {
					t.Fatal("restored architectural state differs")
				}
				var got, want emu.StepInfo
				for i := 0; i < 10_000; i++ {
					ref.StepInto(&want)
					e.StepInto(&got)
					if got != want {
						t.Fatalf("step %d after restore: %+v != %+v", i, got, want)
					}
				}
			})
		}
	}
}

// A checkpoint of a halted emulator restores halted.
func TestCheckpointHalted(t *testing.T) {
	// A two-instruction program that halts immediately keeps the test
	// fast; the built-in benchmarks never halt within any test budget.
	p := &program.Program{
		Name:  "halts",
		Code:  []isa.Inst{{Op: isa.OpNop}, {Op: isa.OpHalt}},
		Entry: program.CodeBase,
	}
	base := program.NewMemory(p)
	e := emu.New(p)
	e.Run(10)
	if !e.Halted {
		t.Fatal("program did not halt")
	}
	cp := Capture(e, base)
	var buf bytes.Buffer
	if err := cp.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := got.Restore(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Halted || r.Retired != e.Retired {
		t.Errorf("restored halted=%v retired=%d, want halted=true retired=%d", r.Halted, r.Retired, e.Retired)
	}
}

func TestCheckpointRestoreValidation(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	q, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base := program.NewMemory(p)
	cp := Capture(emu.New(p), base)
	if _, err := cp.Restore(q); err == nil || !strings.Contains(err.Error(), "restored against") {
		t.Errorf("wrong-program restore: %v", err)
	}
	bad := *cp
	bad.PC = 0x2
	if _, err := bad.Restore(p); err == nil {
		t.Error("out-of-text PC restore accepted")
	}
	bad = *cp
	bad.Regs[0] = 7
	if _, err := bad.Restore(p); err == nil {
		t.Error("nonzero zero-register restore accepted")
	}
}

func TestDecodeBinaryRejectsCorrupt(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	e.Run(1_000)
	var buf bytes.Buffer
	if err := Capture(e, program.NewMemory(p)).EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	if _, err := DecodeBinary(bytes.NewReader([]byte("NOTACKPT________"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations at every structural boundary.
	for _, cut := range []int{4, len(ckptMagic) + 3, len(full) / 2, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := DecodeBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Absurd delta count: encode an empty-delta checkpoint (the count
	// is then the final 8 bytes) and patch it to a huge value.
	empty := &Checkpoint{Program: p.Name, PC: p.Entry}
	var eb bytes.Buffer
	if err := empty.EncodeBinary(&eb); err != nil {
		t.Fatal(err)
	}
	bad := eb.Bytes()
	for i := len(bad) - 8; i < len(bad); i++ {
		bad[i] = 0xff
	}
	if _, err := DecodeBinary(bytes.NewReader(bad)); err == nil {
		t.Error("absurd delta count accepted")
	}
}

// hostileCountInput is a 562-byte binary checkpoint — one-byte name, no
// delta words — whose delta count claims maxCkptWords entries.  A
// decoder that sized the delta from the count would allocate 4 GiB
// before discovering the input ends.
func hostileCountInput(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&Checkpoint{Program: "x"}).EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[len(b)-8:], maxCkptWords)
	return b
}

func TestDecodeBinaryHostileCountAllocation(t *testing.T) {
	in := hostileCountInput(t)
	if len(in) != 562 {
		t.Fatalf("hostile input is %d bytes, want 562", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("delta count beyond the input accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("decoding %d bytes allocated %d bytes; want under 1 MiB", len(in), got)
	}
}

// Restoring into an emulator whose memory image already holds another
// point's state resumes exactly like a fresh Restore.
func TestRestoreIntoReusedEmulator(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base := program.NewMemory(p)
	ref := emu.New(p)
	ref.Run(20_000)
	cp := Capture(ref, base)

	reused := emu.New(p)
	reused.Run(60_000) // a larger, different memory image to reuse
	if err := cp.restoreInto(reused, p); err != nil {
		t.Fatal(err)
	}
	fresh, err := cp.Restore(p)
	if err != nil {
		t.Fatal(err)
	}
	if reused.PC != fresh.PC || reused.Retired != fresh.Retired || reused.Regs != fresh.Regs {
		t.Fatal("restored architectural state differs")
	}
	var got, want emu.StepInfo
	for i := 0; i < 20_000; i++ {
		fresh.StepInto(&want)
		reused.StepInto(&got)
		if got != want {
			t.Fatalf("step %d after restoreInto: %+v != %+v", i, got, want)
		}
	}
	if d := reused.Mem.AppendDelta(fresh.Mem.AppendDelta(nil, reused.Mem), fresh.Mem); len(d) != 0 {
		t.Errorf("memory images differ in %d words after identical execution", len(d))
	}
}
