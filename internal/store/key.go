package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"recyclesim/internal/config"
	"recyclesim/internal/program"
	"recyclesim/internal/sample"
	"recyclesim/internal/workload"
)

// keySchema versions the cell-key derivation.  Bump it whenever the
// canonical serialization below changes meaning: every stored record is
// addressed by the hash of this string plus the cell identity, so a
// schema bump re-keys the store cleanly (old records become unreachable
// garbage rather than wrong answers).
const keySchema = "recyclesim-cell-v1"

// Cell identifies one simulation cell: the full machine and feature
// configuration (by content, not by name), the workload mix, the
// committed-instruction budget, and the sampling schedule for sampled
// cells.  It is the one description of a cell on every path — the
// job API's request body, the fleet's lease body, cmd/experiments'
// sweep, and the store key — so custom knob combinations travel like
// presets and every path agrees on which cells are the same.
type Cell struct {
	Machine   config.Machine  `json:"machine"`
	Features  config.Features `json:"features"`
	Workloads []string        `json:"workloads"`
	// Insts is the committed-instruction budget (0 = config.DefaultInsts);
	// the cycle budget is fixed by the executor (fleet.Execute).
	Insts uint64 `json:"insts,omitempty"`
	// Sampling, when non-nil, makes this a sampled cell.
	Sampling *Sampling `json:"sampling,omitempty"`
}

// Budget returns the cell's committed-instruction budget with the
// default applied.
func (c Cell) Budget() uint64 {
	if c.Insts == 0 {
		return config.DefaultInsts
	}
	return c.Insts
}

// Name renders the cell for logs, progress displays and error
// reports.  It is not an identity: custom feature knobs sharing a
// figure-legend name render alike.
func (c Cell) Name() string {
	name := c.Machine.Name + "/" + config.FeatureName(c.Features) + "/" + strings.Join(c.Workloads, "+")
	if c.Sampling != nil {
		name = "sampled/" + name
	}
	return name
}

// Key resolves the cell's workloads and returns its content address
// (CellKey over the resolved programs' hash and the defaulted budget).
// It fails only when a workload name does not resolve.
func (c Cell) Key() (string, error) {
	progs, err := workload.MixPrograms(c.Workloads)
	if err != nil {
		return "", err
	}
	return CellKey(c.Machine, c.Features, HashPrograms(progs), c.Budget(), c.Sampling), nil
}

// Sampling is the sampled-mode schedule of a cell.  Zero fields select
// the simulator defaults (sample.Config.WithDefaults); the key
// normalizes them, so default and spelled-out schedules share a
// record.  The confidence level is part of the key:
// it changes the IPCLo/IPCHi/CPIHalf bounds a record serves, not just
// their label, so a durable store that ignored it would serve stale
// bounds forever.
type Sampling struct {
	Period      uint64  `json:"period,omitempty"`
	IntervalLen uint64  `json:"interval,omitempty"`
	WarmupLen   uint64  `json:"warmup,omitempty"`
	Confidence  float64 `json:"confidence,omitempty"`
}

// Normalized applies the simulator's schedule defaults
// (sample.Config.WithDefaults), so a cell submitted with zero (default)
// fields shares its record with the same cell submitted with the
// defaults spelled out.
func (s Sampling) Normalized() Sampling {
	c := sample.Config{Period: s.Period, IntervalLen: s.IntervalLen, WarmupLen: s.WarmupLen, Confidence: s.Confidence}.WithDefaults()
	return Sampling{Period: c.Period, IntervalLen: c.IntervalLen, WarmupLen: c.WarmupLen, Confidence: c.Confidence}
}

// HashPrograms returns the content hash of a resolved workload: every
// instruction, the initialized data image (sorted by address), and the
// entry point of every program in the mix.  Two workloads with the
// same name but different generated code hash differently, so a store
// shared across simulator versions can never serve a stale workload's
// results.
func HashPrograms(progs []*program.Program) string {
	h := sha256.New()
	for _, p := range progs {
		fmt.Fprintf(h, "program %s entry=%#x code=%d\n", p.Name, p.Entry, len(p.Code))
		for i, in := range p.Code {
			fmt.Fprintf(h, "%d %+v\n", i, in)
		}
		addrs := make([]uint64, 0, len(p.Data))
		//simlint:ignore determinism -- keys are sorted immediately below
		for a := range p.Data {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			fmt.Fprintf(h, "data %#x %#x\n", a, p.Data[a])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CellKey derives the content address of one simulation cell: the
// SHA-256 of a canonical rendering of machine config, feature knobs,
// workload content hash, instruction budget, and (for sampled cells)
// the normalized sampling schedule including the confidence level.
// Detailed and sampled cells of the same configuration always get
// distinct keys (samp == nil vs. non-nil).
func CellKey(m config.Machine, f config.Features, workloadHash string, insts uint64, samp *Sampling) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|machine=%+v|features=%+v|workload=%s|insts=%d",
		keySchema, m, f, workloadHash, insts)
	if samp != nil {
		n := samp.Normalized()
		fmt.Fprintf(&b, "|sampled=%d-%d-%d|confidence=%g",
			n.Period, n.IntervalLen, n.WarmupLen, n.Confidence)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
