// Package fleet is the distributed execution layer behind the
// recycled job service: worker processes (cmd/recycleworker) register
// with the daemon, heartbeat, and pull simulation cells under
// time-bounded leases; the Dispatcher requeues cells whose lease
// expires or whose worker dies mid-compute, retries failed computes
// with capped exponential backoff + jitter, and degrades gracefully to
// local in-process compute when no workers are attached.
//
// The determinism contract is the same one every layer above keeps: a
// cell's result record is a pure function of its Spec (store.Cell),
// computed by Execute — the one executor, used in-process by the
// dispatcher, by workers, and by cmd/experiments' local sweeps — so a
// sweep's output is byte-identical whether it ran locally or on 0, 1,
// or N worker hosts, witnessed by the chaos tests in fleet/chaos.  The
// job server always computes through a Dispatcher; with no workers
// attached it is simply the server's retry loop around Execute.  The
// durable store above the dispatcher still guarantees each distinct
// cell is computed exactly once per store, no matter how many workers
// race, die, or resurrect: a requeued cell's late result from the
// original (stale) lease is dropped, never double-stored.
//
// This package is host-side service code (goroutines, wall clock,
// HTTP) and lives outside the simulator's determinism scope
// (lint.NonSimPackages); it must never be imported by simulation
// packages.
package fleet

import (
	"context"

	"recyclesim"
	"recyclesim/internal/obs"
	"recyclesim/internal/store"
)

// Spec is the dispatcher's unit of work: one simulation cell.  It is
// store.Cell under its historical name, so the lease body a worker
// receives is the job API's cell verbatim.
type Spec = store.Cell

// Execute computes one cell in-process: the canonical Spec→Record
// executor shared by the dispatcher's zero-worker fallback (and hence
// the job server), cmd/recycleworker, and cmd/experiments' local
// sweeps.  It alone holds the cycle-budget policy: detailed cells run
// with MaxCycles at 40x the instruction budget (the library's own
// default is 4x), sampled cells at Workers 1.  One call is one attempt
// — retries and backoff live in Dispatcher.Compute — but faults are
// already contained: a panic or livelock comes back as an error, never
// takes the process down.
func Execute(ctx context.Context, spec Spec) (*store.Record, error) {
	return ExecuteCrashDir(ctx, spec, "")
}

// ExecuteCrashDir is Execute that also persists a crash bundle under
// crashDir (when non-empty) for a detailed cell that panics or
// livelocks.  Where bundles land is host policy, not cell identity, so
// it travels beside the cell rather than in it.
func ExecuteCrashDir(ctx context.Context, spec Spec, crashDir string) (*store.Record, error) {
	insts := spec.Budget()
	if spec.Sampling != nil {
		// Cell-level Workers is pinned to 1 so sampled estimates are
		// worker-count invariant; sweeps already fan cells out.
		res, err := recyclesim.RunSampledContext(ctx, recyclesim.Options{
			Machine:   spec.Machine,
			Features:  spec.Features,
			Workloads: spec.Workloads,
			MaxInsts:  insts,
			Sampling: &recyclesim.Sampling{
				Workers:     1,
				Period:      spec.Sampling.Period,
				IntervalLen: spec.Sampling.IntervalLen,
				WarmupLen:   spec.Sampling.WarmupLen,
				Confidence:  spec.Sampling.Confidence,
			},
		})
		if err != nil {
			return nil, err
		}
		return &store.Record{Sampled: res}, nil
	}
	// Fresh telemetry per attempt, so a partially accumulated failed
	// attempt never leaks into the stored record.
	tel := &obs.Metrics{Hists: true}
	res, err := recyclesim.RunBatchContext(ctx, []recyclesim.Options{{
		Machine:   spec.Machine,
		Features:  spec.Features,
		Workloads: spec.Workloads,
		MaxInsts:  insts,
		MaxCycles: 40 * insts,
		Telemetry: tel,
		CrashDir:  crashDir,
	}}, recyclesim.BatchConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	return &store.Record{Stats: res[0], Metrics: tel}, nil
}
