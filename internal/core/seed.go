// Core seeding: starting a detailed core from a mid-program
// architectural state instead of the program entry.  Sampled
// simulation (internal/sample) fast-forwards a program on the golden
// emulator, then seeds a detailed core for each measurement interval
// (reusing one core per worker through Reseed); the seeded core's
// committed instruction stream must match the emulator continuing from
// the same state (seed_test.go holds the cosimulation invariant over
// every workload).
package core

import (
	"fmt"

	"recyclesim/internal/bpred"
	"recyclesim/internal/cache"
	"recyclesim/internal/confidence"
	"recyclesim/internal/config"
	"recyclesim/internal/isa"
	"recyclesim/internal/program"
)

// ArchState is a program's architectural state at a seeding point:
// the next PC to execute, the architectural register values, and the
// data memory image.
type ArchState struct {
	PC   uint64
	Regs [isa.NumRegs]uint64

	// Mem, when non-nil, is adopted as the program's data memory (not
	// copied — the caller hands over ownership).  Nil keeps the fresh
	// initial image.
	Mem *program.Memory
}

// Models are the long-lived microarchitectural models a core adopts
// at construction: branch predictor, confidence estimator and cache
// hierarchy.  The core trains the models it is given in place (it does
// not copy them).  A nil field builds a fresh, cold default.  Supplied
// models must be built with the configurations New uses —
// bpred.Default for the machine's context count, confidence.Default,
// and the machine's DefaultHierarchy — or the model diverges from the
// configured machine.
type Models struct {
	Pred *bpred.Predictor
	Conf *confidence.Estimator
	Mem  *cache.Hierarchy
}

// NewSeeded is New with per-program architectural seeds and pre-warmed
// models: seeds[i], when non-nil, starts progs[i]'s primary context at
// the given mid-program PC with the given register values and memory
// image instead of the program entry, and the core adopts m's models
// (see Models).  A nil seeds slice or nil entry means a fresh start.
// The recycle tables always start cold.
func NewSeeded(mach config.Machine, feat config.Features, progs []*program.Program, seeds []*ArchState, m Models) (*Core, error) {
	if err := mach.Validate(); err != nil {
		return nil, err
	}
	c := allocCore(mach)
	if err := c.Reseed(feat, progs, seeds, m); err != nil {
		return nil, err
	}
	return c, nil
}

// Reseed re-initialises c in place to the state NewSeeded(c's machine,
// feat, progs, seeds, m) builds, reusing c's storage, so one core can
// run many independent intervals without reallocating.  NewSeeded
// itself initialises through Reseed, so a reseeded core is the same
// machine as a fresh one.  The previous run's Stats and Obs are
// overwritten in place; copy them first to keep them.  Attached
// recorders, the poll hook and CommitHook are detached.  On error c is
// left unchanged.
func (c *Core) Reseed(feat config.Features, progs []*program.Program, seeds []*ArchState, m Models) error {
	if len(progs) == 0 {
		return fmt.Errorf("core: no programs")
	}
	if len(progs) > c.mach.Contexts {
		return fmt.Errorf("core: %d programs exceed %d contexts", len(progs), c.mach.Contexts)
	}
	if err := feat.Validate(); err != nil {
		return err
	}
	if len(seeds) != 0 && len(seeds) != len(progs) {
		return fmt.Errorf("core: %d seeds for %d programs", len(seeds), len(progs))
	}
	for i, p := range progs {
		if err := p.Validate(); err != nil {
			return err
		}
		if i >= len(seeds) || seeds[i] == nil {
			continue
		}
		s := seeds[i]
		if _, ok := p.PCToIndex(s.PC); !ok {
			return fmt.Errorf("core: seed %d: pc 0x%x outside %s text", i, s.PC, p.Name)
		}
		if s.Regs[isa.RegZero] != 0 {
			return fmt.Errorf("core: seed %d: nonzero zero register", i)
		}
	}
	c.reset(feat, progs, seeds, m)
	return nil
}

// TagAddr disambiguates program address spaces in the shared caches
// and MDB.  The high bits make addresses unique per program; the low
// skew (a 64-byte-aligned odd multiple of the line size) spreads the
// programs' identical virtual layouts across cache sets and banks, as
// distinct physical page mappings would on the real machine.  Exported
// so the functional-warmup driver (internal/sample) trains the shared
// predictor, confidence estimator, and caches with exactly the
// addresses the core will present.
func TagAddr(progIdx int, addr uint64) uint64 {
	return addr + uint64(progIdx+1)<<44 + uint64(progIdx)*64*1245
}
