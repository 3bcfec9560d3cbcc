package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(field int, x uint64) { p.varint(uint64(field)<<3 | 0); p.varint(x) }

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// synthProfile encodes stacks (leaf first) as a gzipped profile.proto.
// Each stack frame gets its own location, except that a frame written
// "a|b" becomes one location whose lines are a (inlined) inside b.
// Location IDs are written packed for stacks longer than two and as
// repeated fields otherwise, as runtime/pprof does.
func synthProfile(t *testing.T, stacks []stack) []byte {
	t.Helper()
	var prof pb
	strs := []string{""}
	funcs := map[string]uint64{}
	fnID := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		strs = append(strs, name)
		var f pb
		f.uint(1, id)
		f.uint(2, uint64(len(strs)-1))
		prof.bytes(5, f.b)
		return id
	}
	nextLoc := uint64(1)
	for _, st := range stacks {
		var locs []uint64
		for _, frame := range st.frames {
			var loc pb
			loc.uint(1, nextLoc)
			for _, name := range splitInline(frame) {
				var line pb
				line.uint(1, fnID(name))
				loc.bytes(4, line.b)
			}
			prof.bytes(4, loc.b)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var s pb
		if len(locs) > 2 {
			var packed pb
			for _, l := range locs {
				packed.varint(l)
			}
			s.bytes(1, packed.b)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
		}
		var vals pb
		vals.varint(uint64(st.count))
		vals.varint(uint64(st.count) * 10_000_000)
		s.bytes(2, vals.b)
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func splitInline(frame string) []string {
	var out []string
	start := 0
	for i := 0; i < len(frame); i++ {
		if frame[i] == '|' {
			out = append(out, frame[start:i])
			start = i + 1
		}
	}
	return append(out, frame[start:])
}

const (
	core   = "recyclesim/internal/core.(*Core)."
	runTop = "recyclesim.RunBatchContext"
)

func TestFoldSharesSyntheticProfile(t *testing.T) {
	cyc := []string{core + "Cycle", core + "Run", runTop}
	in := func(leaf ...string) []string { return append(leaf, cyc...) }
	stacks := []stack{
		// rename 30: 20 in rename itself, 10 in the regfile under it.
		{in(core + "rename"), 20},
		{in("recyclesim/internal/regfile.(*File).Alloc", core+"rename"), 10},
		// fetch 15, reached through an inlined frame: the fetch line
		// and its inlined cache access share one location.
		{in("recyclesim/internal/cache.(*Cache).Access|" + core + "fetch"), 15},
		{in(core + "issue"), 10},
		{in("recyclesim/internal/iq.(*Queue).Scan", core+"issue"), 5},
		{in(core + "commit"), 5},
		{in(core + "complete"), 5},
		{in(core + "attributeSlots"), 2},
		// Cycle's own time and an unlisted callee are "other"; so is
		// Run's own time outside Cycle.
		{in(), 1},
		{in("recyclesim/internal/fu.(*Pool).BeginCycle"), 1},
		{[]string{core + "Run", runTop}, 1},
		// Outside the core: GC, a warmup clone, HTTP, store JSON and
		// fleet protocol work.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 10},
		{[]string{"runtime.memmove", "recyclesim/internal/cache.(*Hierarchy).Clone", "recyclesim/internal/sample.(*Warmup).Clone"}, 5},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*response).Write"}, 4},
		{[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal", "recyclesim/internal/store.(*Store).get"}, 3},
		{[]string{"encoding/json.Marshal", "recyclesim/internal/fleet.(*Worker).post"}, 2},
		// A worker's compute is core time, not fleet overhead.
		{append(in(core+"commit"), "recyclesim/internal/fleet.Execute"), 1},
	}
	var total int64
	for _, s := range stacks {
		total += s.count
	}
	data := synthProfile(t, stacks)
	parsed, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(stacks) {
		t.Fatalf("parsed %d stacks, want %d", len(parsed), len(stacks))
	}
	if got := parsed[2].frames[:2]; got[0] != "recyclesim/internal/cache.(*Cache).Access" || got[1] != core+"fetch" {
		t.Fatalf("inlined location expanded to %v, want cache access inside fetch", got)
	}

	sh := foldShares(parsed)
	share := func(n int64) float64 { return 100 * float64(n) / float64(total) }
	want := map[string]float64{
		"core.run.share":       share(30 + 15 + 15 + 5 + 5 + 2 + 3 + 1),
		"core.rename.share":    share(30),
		"core.fetch.share":     share(15),
		"core.issue.share":     share(15),
		"core.commit.share":    share(5 + 1),
		"core.complete.share":  share(5),
		"core.telemetry.share": share(2),
		"core.other.share":     share(3),
		"regfile.share":        share(10),
		"cache.share":          share(15),
		"iq.share":             share(5),
		"fu.share":             share(1),
		"gc.share":             share(10),
		"sample.clone.share":   share(5),
		"http.share":           share(4 + 2),
		"fleet.share":          share(2),
		"bpred.share":          0,
	}
	for name, w := range want {
		if got, ok := sh[name]; !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, w)
		}
	}
	var stages float64
	for _, n := range stageShares {
		stages += sh[n]
	}
	if math.Abs(stages-sh["core.run.share"]) > 1e-9 {
		t.Errorf("stage shares sum to %v, core.run.share is %v", stages, sh["core.run.share"])
	}
}

// TestParseRealProfile checks the decoder against what runtime/pprof
// actually writes.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stacks {
		if s.count <= 0 || len(s.frames) == 0 {
			t.Fatalf("malformed stack %+v", s)
		}
	}
	if x == 0 {
		t.Log(x)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted non-gzip input")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x50, 0x01}) // sample field claiming 80 bytes
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("parseProfile accepted a truncated message")
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"recyclesim/internal/cache.(*Cache).Access": "recyclesim/internal/cache",
		"recyclesim.RunBatchContext":                "recyclesim",
		"runtime.mallocgc":                          "runtime",
		"net/http.(*conn).serve":                    "net/http",
		"encoding/json.Marshal":                     "encoding/json",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
