package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one CPU-profile sample: its frames, leaf first, with
// inlined calls expanded, and its sample count.
type stack struct {
	frames []string
	count  int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes into stacks.  Only the fields the folding needs are read:
// samples, locations with their lines, functions and the string table.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 { // values[0] is the sample count
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				name := "?"
				if i := funcs[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkFields calls fn for each field of one protobuf message: v holds
// a varint value, b a length-delimited payload.  Fixed-width fields
// are skipped; profile.proto uses none that the folding reads.
func walkFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as
// one value (b == nil) or packed.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const (
	fnCoreRun   = "recyclesim/internal/core.(*Core).Run"
	fnCoreCycle = "recyclesim/internal/core.(*Core).Cycle"
)

// stages maps the function called directly from core.(*Core).Cycle to
// its stage share; any other callee, and Cycle's or Run's own time,
// is "other".
var stages = map[string]string{
	"recyclesim/internal/core.(*Core).commit":         "core.commit.share",
	"recyclesim/internal/core.(*Core).complete":       "core.complete.share",
	"recyclesim/internal/core.(*Core).issue":          "core.issue.share",
	"recyclesim/internal/core.(*Core).rename":         "core.rename.share",
	"recyclesim/internal/core.(*Core).fetch":          "core.fetch.share",
	"recyclesim/internal/core.(*Core).attributeSlots": "core.telemetry.share",
}

// stageShares lists every stage share, "other" last; together they add
// up to core.run.share.
var stageShares = []string{
	"core.commit.share", "core.complete.share", "core.issue.share",
	"core.rename.share", "core.fetch.share", "core.telemetry.share",
	"core.other.share",
}

// selfPackages are the simulator packages whose self time (the leaf
// frame of a sample) gets its own share.
var selfPackages = []string{
	"cache", "bpred", "iq", "wheel", "alist", "regfile", "recycle",
	"confidence", "fu", "emu", "sample",
}

// cloneFuncs are the calls that snapshot warmed models for a sampled
// interval; sample.clone.share is the time spent under any of them.
var cloneFuncs = map[string]bool{
	"recyclesim/internal/cache.(*Hierarchy).Clone":      true,
	"recyclesim/internal/cache.New":                     true,
	"recyclesim/internal/bpred.(*Predictor).Clone":      true,
	"recyclesim/internal/confidence.(*Estimator).Clone": true,
}

// gcFuncs are the garbage collector's entry points: background
// marking, mutator assists, sweeping and scavenging.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// computeFuncs are the library entry points that simulate a cell; a
// fleet frame above one of them is compute, not fleet overhead.
var computeFuncs = map[string]bool{
	"recyclesim.RunBatchContext":   true,
	"recyclesim.RunSampledContext": true,
}

// pkgOf returns the import path of a profile function name, e.g.
// "recyclesim/internal/cache" for "recyclesim/internal/cache.(*Cache).Access".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldShares folds stacks into percentage shares of all samples:
//
//   - core.run.share: samples inside core.(*Core).Run, split by the
//     function directly under core.(*Core).Cycle into the stage shares
//     (stageShares), which add up to core.run.share;
//   - <pkg>.share for selfPackages: samples whose leaf frame is in
//     recyclesim/internal/<pkg> (self time);
//   - sample.clone.share, gc.share: samples under cloneFuncs, gcFuncs;
//   - http.share: samples under net/http or net, or under encoding/json
//     outside the store's record codec;
//   - fleet.share: samples under internal/fleet but not under a cell
//     simulation (computeFuncs).
//
// Every share is reported, zero when no sample matched.
func foldShares(stacks []stack) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, st := range stacks {
		total += st.count
		var inRun, inClone, inGC, inNet, inJSON, inStore, inFleet, inCompute bool
		cycle := -1
		for i, fn := range st.frames {
			switch {
			case fn == fnCoreRun:
				inRun = true
			case fn == fnCoreCycle && cycle < 0:
				cycle = i
			case cloneFuncs[fn]:
				inClone = true
			case gcFuncs[fn]:
				inGC = true
			case computeFuncs[fn]:
				inCompute = true
			}
			switch pkg := pkgOf(fn); pkg {
			case "net/http", "net":
				inNet = true
			case "encoding/json":
				inJSON = true
			case "recyclesim/internal/store":
				inStore = true
			case "recyclesim/internal/fleet":
				inFleet = true
			}
		}
		if inRun {
			counts["core.run.share"] += st.count
			stage := "core.other.share"
			if cycle > 0 {
				if s, ok := stages[st.frames[cycle-1]]; ok {
					stage = s
				}
			}
			counts[stage] += st.count
		}
		if len(st.frames) > 0 {
			if pkg := pkgOf(st.frames[0]); strings.HasPrefix(pkg, "recyclesim/internal/") {
				counts[strings.TrimPrefix(pkg, "recyclesim/internal/")+".share"] += st.count
			}
		}
		if inClone {
			counts["sample.clone.share"] += st.count
		}
		if inGC {
			counts["gc.share"] += st.count
		}
		if inNet || (inJSON && !inStore) {
			counts["http.share"] += st.count
		}
		if inFleet && !inCompute {
			counts["fleet.share"] += st.count
		}
	}
	names := append([]string{"core.run.share", "sample.clone.share", "gc.share", "http.share", "fleet.share"}, stageShares...)
	for _, p := range selfPackages {
		names = append(names, p+".share")
	}
	out := make(map[string]float64, len(names))
	for _, n := range names {
		if total > 0 {
			out[n] = 100 * float64(counts[n]) / float64(total)
		} else {
			out[n] = 0
		}
	}
	return out
}
