package core

import (
	"testing"

	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/workload"
)

// walkMerge is the reference merge lookup: walk the partition's spare
// contexts in order with recycle.MergePoints.Match, then the thread's
// own backward point, exactly as fetch did before the targets were
// gathered per block.  It reports the trace a fetch of pc would enter.
func walkMerge(c *Core, t *Context, pc uint64) (src *Context, seq uint64, back, ok bool) {
	if t.part.done {
		return nil, 0, false, false
	}
	if t.isPrimary {
		for _, id := range t.part.ctxIDs {
			s := c.ctxs[id]
			if s == t {
				continue
			}
			if s.state != CtxActive && s.state != CtxDraining && s.state != CtxInactive {
				continue
			}
			if seq, back, ok := s.mp.Match(pc); ok && !back {
				return s, seq, false, true
			}
		}
	}
	if seq, back, ok := t.mp.Match(pc); ok && back {
		return t, seq, true, true
	}
	return nil, 0, false, false
}

// TestMergeTargetsMatchWalk checks, every cycle of two recycling runs,
// that the per-block merge targets pick the same trace as the
// reference walk for every live thread, probing each merge point's PC
// and the thread's fetch PC.
func TestMergeTargetsMatchWalk(t *testing.T) {
	for _, bench := range []string{"gcc", "go"} {
		p, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(config.Big216(), config.RECRSRU, []*program.Program{p})
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for cyc := 0; cyc < 20_000 && !c.Done(); cyc++ {
			c.Cycle()
			for _, th := range c.liveContexts() {
				targets := c.mergeTargets(th)
				probes := []uint64{th.fetchPC}
				for _, s := range c.ctxs {
					probes = append(probes, s.mp.FirstPC, s.mp.BackPC)
				}
				for _, pc := range probes {
					wantSrc, wantSeq, wantBack, wantOK := walkMerge(c, th, pc)
					var got *mergeTarget
					for i := range targets {
						if targets[i].pc == pc {
							got = &targets[i]
							break
						}
					}
					switch {
					case got == nil && wantOK, got != nil && !wantOK:
						t.Fatalf("%s cycle %d ctx %d pc %#x: targets hit=%v, walk hit=%v", bench, c.cycle, th.id, pc, got != nil, wantOK)
					case got != nil && (got.src != wantSrc || got.seq != wantSeq || got.back != wantBack):
						t.Fatalf("%s cycle %d ctx %d pc %#x: targets pick ctx %d seq %d back %v, walk picks ctx %d seq %d back %v",
							bench, c.cycle, th.id, pc, got.src.id, got.seq, got.back, wantSrc.id, wantSeq, wantBack)
					case got != nil:
						hits++
					}
				}
			}
		}
		if hits == 0 {
			t.Fatalf("%s: no merge point was ever probed successfully; the test checks nothing", bench)
		}
	}
}
