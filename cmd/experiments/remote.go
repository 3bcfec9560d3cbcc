package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"recyclesim/internal/jobs"
	"recyclesim/internal/store"
)

// computeRemote is computeAll for -remote mode: every collected cell is
// submitted as one sweep to a recycled job server, and the streamed
// results land in the same memoized slots the replay pass reads, so
// stdout is byte-identical to a local run.  The server computes with
// the same executor (fleet.Execute), keys every cell with the same
// store.Cell.Key a local -checkpoint store uses, and serves repeats
// from its durable store — so a rerun of the same figure, or of one a
// local -checkpoint sweep already filled, costs zero simulation.
// Fault containment is per cell, like -keep-going: a failed cell comes
// back as an error record and prints as zeros while the rest of the
// sweep completes.
// traceOut, when non-empty, saves the job's Chrome trace_event JSON
// there after the sweep; the trace URL prints on stderr either way.
// token, when non-empty, authenticates against a server running with
// -token.
func computeRemote(ctx context.Context, r *runner, baseURL, token, traceOut string, stderr io.Writer) error {
	r.startResults()
	client := jobs.NewClient(baseURL)
	client.Token = token
	st, err := client.Run(ctx, jobs.JobRequest{Cells: r.cells}, func(res jobs.CellResult) error {
		i := res.Index
		if i < 0 || i >= len(r.cells) {
			return fmt.Errorf("server sent cell index %d of %d", i, len(r.cells))
		}
		var err error
		if res.Error != "" {
			err = errors.New(res.Error)
		}
		if r.prog != nil {
			r.prog.StartCell(r.cells[i].Name())
		}
		r.land(i, &store.Record{Stats: res.Stats, Metrics: res.Metrics, Sampled: res.Sampled}, res.Cached, err)
		return nil
	})
	if err != nil {
		return err
	}
	// One accounting line on stderr (stdout must stay byte-identical to
	// a local run); a rerun of an unchanged sweep shows computes=0.
	fmt.Fprintf(stderr, "experiments: remote: job=%s cells=%d hits=%d computes=%d failed=%d\n",
		st.ID, st.Cells, st.Hits, st.Computes, st.Failed)
	fmt.Fprintf(stderr, "experiments: remote: trace %s/jobs/%s/trace\n", baseURL, st.ID)
	if traceOut != "" {
		raw, err := client.FetchTrace(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("fetch trace: %w", err)
		}
		if err := os.WriteFile(traceOut, raw, 0o644); err != nil {
			return fmt.Errorf("save trace: %w", err)
		}
		fmt.Fprintf(stderr, "experiments: remote: trace saved to %s\n", traceOut)
	}
	r.collect = false
	return nil
}
