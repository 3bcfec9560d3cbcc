package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"recyclesim"
	"recyclesim/internal/fleet"
	"recyclesim/internal/obs"
	"recyclesim/internal/sweep"
)

// The cell grid.  Budgets are fixed: the golden digests below are only
// valid for exactly these cells.
const (
	machineName = "big.2.16"

	detailedInsts = 100_000
	sampledInsts  = 2_000_000
	samplePeriod  = 100_000
	sampleLen     = 1_000 // interval length L and detached warmup W
	serviceInsts  = 20_000
)

var (
	detailedPresets = []string{"SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"}
	sampledPresets  = []string{"SMT", "TME", "REC", "REC/RS", "REC/RS/RU"}
)

// goldenFile is the checked-in reference for every kernel cell, made
// by -write-golden at a commit whose results are trusted.  Generated
// programs depend on the seed and are checked against the golden
// emulator instead (see verifyGenerated).
const goldenFile = "golden.json"

// golden holds one digest of simulated statistics per cell, keyed
// "<program>/<preset>", plus the full-detail reference IPC of every
// sampled cell.
type golden struct {
	DetailedInsts uint64 `json:"detailed_insts"`
	SampledInsts  uint64 `json:"sampled_insts"`
	SamplePeriod  uint64 `json:"sample_period"`
	SampleLen     uint64 `json:"sample_len"`
	ServiceInsts  uint64 `json:"service_insts"`

	Detailed map[string]string        `json:"detailed"`
	Sampled  map[string]sampledGolden `json:"sampled"`
	Service  map[string]string        `json:"service"`
}

type sampledGolden struct {
	Digest string  `json:"digest"`
	RefIPC float64 `json:"ref_ipc"`
}

// digest is the short SHA-256 of a result's JSON encoding: any change
// in any simulated counter changes it.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // results are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// serviceDigest digests what a service cell delivers: statistics and
// telemetry.
func serviceDigest(st *recyclesim.Result, m *obs.Metrics) string {
	return digest(struct {
		Stats   *recyclesim.Result
		Metrics *obs.Metrics
	}{st, m})
}

// checkDigest compares a cell's digest against its reference.
func checkDigest(ref map[string]string, cell, got string) error {
	want, ok := ref[cell]
	switch {
	case !ok:
		return fmt.Errorf("%s: no golden digest", cell)
	case want != got:
		return fmt.Errorf("%s: digest %s, golden %s", cell, got, want)
	}
	return nil
}

// parseGolden decodes the reference file and checks that it was made
// for the benchmark's cells.
func parseGolden(data []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	if g.DetailedInsts != detailedInsts || g.SampledInsts != sampledInsts || g.SamplePeriod != samplePeriod ||
		g.SampleLen != sampleLen || g.ServiceInsts != serviceInsts {
		return nil, fmt.Errorf("%s: budgets do not match the benchmark's cells; regenerate with -write-golden", goldenFile)
	}
	return &g, nil
}

func machine() recyclesim.Machine { return recyclesim.MachineByName(machineName) }

// detailedOptions is one full-detail cell under the harness's 40x
// cycle budget, with telemetry off.
func detailedOptions(p *recyclesim.Program, preset string, insts uint64) recyclesim.Options {
	return recyclesim.Options{
		Machine:   machine(),
		Features:  recyclesim.PresetByName(preset),
		Programs:  []*recyclesim.Program{p},
		MaxInsts:  insts,
		MaxCycles: 40 * insts,
	}
}

func sampledOptions(p *recyclesim.Program, preset string) recyclesim.Options {
	return recyclesim.Options{
		Machine:  machine(),
		Features: recyclesim.PresetByName(preset),
		Programs: []*recyclesim.Program{p},
		MaxInsts: sampledInsts,
		Sampling: &recyclesim.Sampling{
			Period:      samplePeriod,
			IntervalLen: sampleLen,
			WarmupLen:   sampleLen,
			Workers:     1,
		},
	}
}

// serviceSpec is one cell of the service sweep.
func serviceSpec(workload, preset string) fleet.Spec {
	return fleet.Spec{
		Machine:   machine(),
		Features:  recyclesim.PresetByName(preset),
		Workloads: []string{workload},
		Insts:     serviceInsts,
	}
}

// runDetailed simulates one cell through the batch runner.
func runDetailed(ctx context.Context, o recyclesim.Options) (*recyclesim.Result, error) {
	res, err := recyclesim.RunBatchContext(ctx, []recyclesim.Options{o}, recyclesim.BatchConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// kernels builds the built-in programs.
func kernels() ([]*recyclesim.Program, error) {
	var ps []*recyclesim.Program
	for _, name := range recyclesim.Workloads() {
		p, err := recyclesim.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// writeGolden recomputes every kernel cell and writes the reference
// file.  It takes a few minutes: the sampled references need a
// full-detail run of every sampled cell.
func writeGolden(ctx context.Context, path string, workers int) error {
	progs, err := kernels()
	if err != nil {
		return err
	}
	g := golden{
		DetailedInsts: detailedInsts, SampledInsts: sampledInsts,
		SamplePeriod: samplePeriod, SampleLen: sampleLen, ServiceInsts: serviceInsts,
		Detailed: map[string]string{}, Sampled: map[string]sampledGolden{}, Service: map[string]string{},
	}
	var mu sync.Mutex
	var errs []error
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	var jobs []func()
	for _, p := range progs {
		for _, preset := range detailedPresets {
			p, preset, cell := p, preset, p.Name+"/"+preset
			jobs = append(jobs, func() {
				res, err := runDetailed(ctx, detailedOptions(p, preset, detailedInsts))
				if err != nil {
					fail(fmt.Errorf("%s: %w", cell, err))
					return
				}
				mu.Lock()
				g.Detailed[cell] = digest(res)
				mu.Unlock()
			})
			jobs = append(jobs, func() {
				rec, err := fleet.Execute(ctx, serviceSpec(p.Name, preset))
				if err != nil {
					fail(fmt.Errorf("service %s: %w", cell, err))
					return
				}
				mu.Lock()
				g.Service[cell] = serviceDigest(rec.Stats, rec.Metrics)
				mu.Unlock()
			})
		}
		for _, preset := range sampledPresets {
			p, preset, cell := p, preset, p.Name+"/"+preset
			jobs = append(jobs, func() {
				sres, err := recyclesim.RunSampledContext(ctx, sampledOptions(p, preset))
				if err != nil {
					fail(fmt.Errorf("sampled %s: %w", cell, err))
					return
				}
				ref, err := runDetailed(ctx, detailedOptions(p, preset, sampledInsts))
				if err != nil {
					fail(fmt.Errorf("reference %s: %w", cell, err))
					return
				}
				mu.Lock()
				g.Sampled[cell] = sampledGolden{Digest: digest(sres), RefIPC: ref.IPC()}
				mu.Unlock()
			})
		}
	}
	sweep.Run(len(jobs), workers, func(i int) { jobs[i]() })
	if len(errs) > 0 {
		return errs[0]
	}
	data, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
