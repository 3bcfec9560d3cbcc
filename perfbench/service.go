package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"recyclesim"
	"recyclesim/internal/fleet"
	"recyclesim/internal/jobs"
	"recyclesim/internal/obs/server"
	"recyclesim/internal/stats"
	"recyclesim/internal/store"
	"recyclesim/internal/sweep"
)

// Service load: nproc clients in a closed loop, each with one
// connection, and on service-hits at least hitsJobs jobs per round.
const (
	hitsJobs   = 100
	timedCalls = 20 // sequential jobs behind the timed client sub-calls
)

// serviceCell is one cell of the 48-cell kernel sweep the clients
// submit.
type serviceCell struct {
	name  string // "<program>/<preset>"
	spec  jobs.CellSpec
	local fleet.Spec // the same cell for the fleet's local executor
	key   string     // store address, as the job server derives it
}

func serviceCells() ([]serviceCell, error) {
	var cells []serviceCell
	for _, w := range recyclesim.Workloads() {
		p, err := recyclesim.WorkloadByName(w)
		if err != nil {
			return nil, err
		}
		for _, preset := range detailedPresets {
			s := serviceSpec(w, preset)
			cells = append(cells, serviceCell{
				name:  w + "/" + preset,
				spec:  jobs.CellSpec{Machine: s.Machine, Features: s.Features, Workloads: s.Workloads, Insts: s.Insts},
				local: s,
				key:   store.CellKey(s.Machine, s.Features, store.HashPrograms([]*recyclesim.Program{p}), serviceInsts, nil),
			})
		}
	}
	return cells, nil
}

// daemon is an in-process recycled: store, fleet dispatcher and job
// server on one loopback listener, wired as cmd/recycled wires them,
// optionally with one fleet worker attached over loopback.
type daemon struct {
	st     *store.Store
	disp   *fleet.Dispatcher
	srv    *server.Server
	url    string
	client *http.Client // the load generator's connections
	wHTTP  *http.Client // the worker's connections
	cancel context.CancelFunc
	done   chan error // worker exit; nil without a worker
}

func (r *runner) startDaemon(dir string, withWorker bool) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(r.ctx)
	srv := server.New(&sweep.Progress{})
	// The daemon's defaults (cmd/recycled): no retries, 250ms backoff,
	// 30s lease TTL.
	disp := fleet.NewDispatcher(fleet.Config{
		LeaseTTL:      30 * time.Second,
		RetryDelay:    250 * time.Millisecond,
		RetryDelayMax: 10 * time.Second,
	})
	disp.StartReaper(ctx, 0)
	js := jobs.NewServer(ctx, st, jobs.Config{
		Workers:       r.nproc,
		RetryDelay:    250 * time.Millisecond,
		RetryDelayMax: 10 * time.Second,
		Fleet:         disp,
		Publish:       srv.Publish,
	})
	js.Register(srv)
	disp.Register(srv, "")
	srv.AppendMetrics(js.WriteServiceMetrics)
	srv.AppendMetrics(disp.WriteMetrics)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		cancel()
		return nil, err
	}
	d := &daemon{
		st: st, disp: disp, srv: srv, url: "http://" + srv.Addr(), cancel: cancel,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.nproc}},
		wHTTP:  &http.Client{Transport: &http.Transport{}},
	}
	if !withWorker {
		return d, nil
	}
	w := fleet.NewWorker(fleet.WorkerConfig{BaseURL: d.url, Name: "perfbench", Parallel: r.nproc, HTTP: d.wHTTP})
	d.done = make(chan error, 1)
	go func() { d.done <- w.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); disp.Counters().Workers < 1; {
		if time.Now().After(deadline) {
			d.close()
			return nil, errors.New("fleet worker did not register")
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// close stops the worker (which releases its leases and deregisters),
// then the server, and waits for both.
func (d *daemon) close() {
	d.cancel()
	if d.done != nil {
		<-d.done
	}
	d.srv.Close()
	d.client.CloseIdleConnections()
	d.wHTTP.CloseIdleConnections()
}

func (d *daemon) newClient() *jobs.Client {
	c := jobs.NewClient(d.url)
	c.HTTP = d.client
	return c
}

// jobResult is what the client saw of one job.  It keeps no per-cell
// results, so memory does not grow with the number of jobs measured.
type jobResult struct {
	id        string
	ms        float64           // Submit to the last NDJSON line
	cellMS    []float64         // Submit to each cell's line
	cells     int               // cells delivered
	committed map[string]uint64 // committed instructions by delivered cell
	sum       stats.Sim         // statistics summed over the delivered cells
}

// runJob submits the sweep in the given cell order and checks every
// delivered cell against golden.json: no error, the golden digest, and
// served from the store when wantCached.  Every cell is one attempt.
func (r *runner) runJob(c *jobs.Client, cells []serviceCell, order []int, wantCached bool) jobResult {
	jr := jobs.JobRequest{Cells: make([]jobs.CellSpec, len(order))}
	for i, k := range order {
		jr.Cells[i] = cells[k].spec
	}
	out := jobResult{committed: map[string]uint64{}}
	results := map[string]*jobs.CellResult{}
	start := time.Now()
	var last time.Time
	st, err := c.Run(r.ctx, jr, func(res jobs.CellResult) error {
		last = time.Now()
		out.cellMS = append(out.cellMS, float64(last.Sub(start).Nanoseconds())/1e6)
		if res.Index < 0 || res.Index >= len(order) {
			return fmt.Errorf("cell index %d out of range", res.Index)
		}
		results[cells[order[res.Index]].name] = &res
		return nil
	})
	if last.IsZero() {
		last = time.Now()
	}
	out.ms = float64(last.Sub(start).Nanoseconds()) / 1e6
	if st != nil {
		out.id = st.ID
	}
	for _, k := range order {
		c := cells[k]
		res, ok := results[c.name]
		var cerr error
		switch {
		case !ok && err != nil:
			cerr = fmt.Errorf("%s: %w", c.name, err)
		case !ok:
			cerr = fmt.Errorf("%s: not delivered", c.name)
		case res.Error != "":
			cerr = fmt.Errorf("%s: %s", c.name, res.Error)
		case res.Stats == nil:
			cerr = fmt.Errorf("%s: no statistics", c.name)
		case wantCached && !res.Cached:
			cerr = fmt.Errorf("%s: computed, want a store hit", c.name)
		default:
			cerr = checkDigest(r.golden.Service, c.name, serviceDigest(res.Stats, res.Metrics))
			out.cells++
			out.committed[c.name] = res.Stats.Committed
			out.sum.Add(res.Stats)
		}
		r.check(cerr)
	}
	return out
}

// clients runs nproc clients against d in a closed loop until
// jobsTotal jobs have been submitted in all, each job in its own
// seeded cell order, and returns the jobs and the loop's wall time.
func (r *runner) clients(d *daemon, cells []serviceCell, jobsTotal int, wantCached bool, rnd *rng) ([]jobResult, time.Duration) {
	orders := make([][]int, jobsTotal)
	for i := range orders {
		orders[i] = rnd.perm(len(cells))
	}
	results := make([]jobResult, jobsTotal)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < r.nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := d.newClient()
			for {
				i := int(next.Add(1) - 1)
				if i >= jobsTotal || r.ctx.Err() != nil {
					return
				}
				results[i] = r.runJob(c, cells, orders[i], wantCached)
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// serviceRep is what one repetition of a service workload measured.
type serviceRep struct {
	wall  float64
	jobs  []jobResult
	insts float64        // simulated instructions the rate counts
	store store.Counters // of the repetition's own daemon
	fleet fleet.Counters
}

// reportService sets the end-to-end metrics of a service workload from
// its untraced repetitions, and the layer counters.
func (r *runner) reportService(reps []serviceRep, cellsPerJob int) {
	reps = reps[:len(r.walls)]
	var rates, cps, cellMS, jobMS []float64
	var disk, computes, shares, leases, requeues, local, remote []float64
	for _, rp := range reps {
		cells := 0
		for _, j := range rp.jobs {
			cells += j.cells
			cellMS = append(cellMS, j.cellMS...)
			jobMS = append(jobMS, j.ms)
		}
		rates = append(rates, rp.insts/rp.wall/1e6)
		cps = append(cps, float64(cells)/rp.wall)
		disk = append(disk, float64(rp.store.DiskHits))
		computes = append(computes, float64(rp.store.Computes))
		shares = append(shares, float64(rp.store.FlightShares))
		leases = append(leases, float64(rp.fleet.LeasesGranted))
		requeues = append(requeues, float64(rp.fleet.Requeues))
		local = append(local, float64(rp.fleet.LocalComputes))
		remote = append(remote, float64(rp.fleet.RemoteComputes))
	}
	r.set("sim_minsts_per_s", "M/s", median(rates))
	r.set("cells_per_s", "1/s", median(cps))
	r.setCellPercentiles(cellMS)
	if p, ok := highestPercentile(len(jobMS)); ok {
		r.set("job_p50_ms", "ms", percentile(jobMS, 50))
		if p >= 90 {
			r.set("job_p90_ms", "ms", percentile(jobMS, 90))
		}
		r.set("jobs.cell_overhead_us", "us", 1000*median(jobMS)/float64(cellsPerJob))
	}
	r.set("job_samples", "count", float64(len(jobMS)))
	r.set("store.disk_hits", "count", median(disk))
	r.set("store.computes", "count", median(computes))
	r.set("store.flight_shares", "count", median(shares))
	r.set("fleet.leases_granted", "count", median(leases))
	r.set("fleet.requeues", "count", median(requeues))
	r.set("fleet.local_computes", "count", median(local))
	r.set("fleet.remote_computes", "count", median(remote))
}

// fillStore computes every cell locally with the fleet's canonical
// executor, checks it against golden.json and writes it to a store in
// dir, under the key the job server will look up.
func (r *runner) fillStore(dir string, cells []serviceCell) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	errs := make([]error, len(cells))
	checks := make([]error, len(cells))
	sweep.Run(len(cells), r.nproc, func(i int) {
		c := cells[i]
		rec, err := fleet.Execute(r.ctx, c.local)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", c.name, err)
			return
		}
		checks[i] = checkDigest(r.golden.Service, c.name, serviceDigest(rec.Stats, rec.Metrics))
		errs[i] = st.Put(c.key, rec)
	})
	for _, err := range checks {
		r.check(err)
	}
	return errors.Join(errs...)
}

// runServiceHits is the service-hits workload: every cell of every job
// is a store hit.
func runServiceHits(r *runner) error {
	cells, err := serviceCells()
	if err != nil {
		return err
	}
	var dir string
	for i := 0; i < setups; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("hits-%d", i))
		if err := r.setup(func() error {
			if err := r.fillStore(dir, cells); err != nil {
				return err
			}
			d, err := r.startDaemon(dir, false)
			if err != nil {
				return err
			}
			d.close()
			return nil
		}); err != nil {
			return err
		}
	}

	// Each round gets a fresh daemon over the filled store: the job
	// server keeps every finished job in memory, so a long-lived one
	// would make memory depend on how many rounds fit in the run.
	rnd := &rng{s: r.seed}
	spans := map[string][]float64{}
	var reps []serviceRep
	err = r.measure(func() (time.Duration, error) {
		d, err := r.startDaemon(dir, false)
		if err != nil {
			return 0, err
		}
		defer d.close()
		results, wall := r.clients(d, cells, hitsJobs, true, rnd)
		rep := serviceRep{wall: wall.Seconds(), jobs: results, store: d.st.Counters()}
		for _, j := range results {
			for _, n := range j.committed {
				rep.insts += float64(n)
			}
		}
		r.checkCounter("store computes", rep.store.Computes, 0)
		if r.traced {
			r.fetchSpans(d, results[len(results)-timedCalls:], spans)
		}
		reps = append(reps, rep)
		return wall, r.ctx.Err()
	})
	if err != nil {
		return err
	}
	r.reportService(reps, len(cells))
	r.setSimCounts(&reps[0].jobs[0].sum)
	if r.traced {
		if err := r.timeClientCalls(dir, cells); err != nil {
			return err
		}
		r.setSpanMetrics(spans)
		if err := r.timeStore(dir, cells); err != nil {
			return err
		}
	}
	return nil
}

// runServiceCold is the service-cold workload: a fresh, empty store
// per repetition, one fleet worker, and nproc clients submitting the
// same sweep at once, so cells coalesce in single-flight.
func runServiceCold(r *runner) error {
	cells, err := serviceCells()
	if err != nil {
		return err
	}
	rnd := &rng{s: r.seed}
	spans := map[string][]float64{}
	var reps []serviceRep
	var dir string
	err = r.measure(func() (time.Duration, error) {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("cold-%d", len(reps)))
		var d *daemon
		if err := r.setup(func() error {
			var err error
			d, err = r.startDaemon(dir, true)
			return err
		}); err != nil {
			return 0, err
		}
		defer d.close()
		results, wall := r.clients(d, cells, r.nproc, false, rnd)
		rep := serviceRep{wall: wall.Seconds(), jobs: results, store: d.st.Counters(), fleet: d.disp.Counters()}
		// The rate counts each distinct cell's simulation once.
		distinct := map[string]uint64{}
		for _, j := range results {
			for name, n := range j.committed {
				distinct[name] = n
			}
		}
		for _, n := range distinct {
			rep.insts += float64(n)
		}
		r.checkCounter("store computes", rep.store.Computes, uint64(len(cells)))
		if r.traced {
			r.fetchSpans(d, results, spans)
		}
		reps = append(reps, rep)
		return wall, r.ctx.Err()
	})
	if err != nil {
		return err
	}
	r.reportService(reps, len(cells))
	r.setSimCounts(&reps[0].jobs[0].sum)
	if r.traced {
		r.setSpanMetrics(spans)
		if err := r.timeStore(dir, cells); err != nil {
			return err
		}
	}
	return nil
}

// checkCounter counts one attempt that fails unless got == want.
func (r *runner) checkCounter(name string, got, want uint64) {
	var err error
	if got != want {
		err = fmt.Errorf("%s = %d, want %d", name, got, want)
	}
	r.check(err)
}

// fetchSpans downloads the jobs' request traces and adds their span
// self-times, by span name, to spans.
func (r *runner) fetchSpans(d *daemon, results []jobResult, spans map[string][]float64) {
	c := d.newClient()
	for _, j := range results {
		if j.id == "" {
			continue
		}
		data, err := c.FetchTrace(r.ctx, j.id)
		if err == nil {
			err = addSelfTimes(data, spans)
		}
		if err != nil {
			r.check(fmt.Errorf("trace of job %s: %w", j.id, err))
		}
	}
}

// addSelfTimes adds the self time of every span in a Chrome trace, in
// microseconds, to spans by span name.  A span's self time is its
// duration less the time its children cover.
func addSelfTimes(data []byte, spans map[string][]float64) error {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
			Args struct {
				Span   uint64 `json:"span"`
				Parent uint64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	child := map[uint64]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			child[ev.Args.Parent] += ev.Dur
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		self := ev.Dur - child[ev.Args.Span]
		if self < 0 {
			self = 0 // children of a span may overlap each other
		}
		spans[ev.Name] = append(spans[ev.Name], float64(self))
	}
	return nil
}

func (r *runner) setSpanMetrics(spans map[string][]float64) {
	r.set("jobs.queue_us", "us", median(spans["queue"]))
	r.set("jobs.lookup_us", "us", median(spans["lookup"]))
	r.set("jobs.stream_line_us", "us", median(spans["stream"]))
	r.set("fleet.lease_us", "us", median(spans["lease"]))
	r.set("fleet.compute_ms", "ms", median(spans["compute"])/1000)
}

// timeClientCalls times the two halves of a job, Submit and
// StreamResults, over sequential jobs on a fresh daemon.
func (r *runner) timeClientCalls(dir string, cells []serviceCell) error {
	d, err := r.startDaemon(dir, false)
	if err != nil {
		return err
	}
	defer d.close()
	c := d.newClient()
	jr := jobs.JobRequest{}
	for _, cell := range cells {
		jr.Cells = append(jr.Cells, cell.spec)
	}
	var submit, first, stream []float64
	for i := 0; i < timedCalls; i++ {
		t0 := time.Now()
		id, err := c.Submit(r.ctx, jr)
		if err != nil {
			return err
		}
		t1 := time.Now()
		var t2 time.Time
		if err := c.StreamResults(r.ctx, id, func(jobs.CellResult) error {
			if t2.IsZero() {
				t2 = time.Now()
			}
			return nil
		}); err != nil {
			return err
		}
		t3 := time.Now()
		submit = append(submit, float64(t1.Sub(t0).Nanoseconds())/1e6)
		first = append(first, float64(t2.Sub(t1).Nanoseconds())/1e6)
		stream = append(stream, float64(t3.Sub(t1).Nanoseconds())/1e6)
	}
	r.set("jobs.submit_ms", "ms", median(submit))
	r.set("jobs.first_cell_ms", "ms", median(first))
	r.set("jobs.stream_ms", "ms", median(stream))
	return nil
}

// timeStore times Get (hit and miss) and Put on a copy of the
// workload's store, one call per cell each.
func (r *runner) timeStore(dir string, cells []serviceCell) error {
	cp := dir + "-copy"
	if err := copyDir(dir, cp); err != nil {
		return err
	}
	defer os.RemoveAll(cp)
	st, err := store.Open(cp)
	if err != nil {
		return err
	}
	var hit, miss, put []float64
	for _, c := range cells {
		t0 := time.Now()
		rec, ok := st.Get(c.key)
		hit = append(hit, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok {
			return fmt.Errorf("store copy: %s missing", c.name)
		}
		sum := sha256.Sum256([]byte(c.key + "/absent"))
		other := hex.EncodeToString(sum[:])
		t0 = time.Now()
		if _, ok := st.Get(other); ok {
			return fmt.Errorf("store copy: unexpected record %s", other)
		}
		miss = append(miss, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		if err := st.Put(other, rec); err != nil {
			return err
		}
		put = append(put, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.set("store.get_hit_us", "us", median(hit))
	r.set("store.get_miss_us", "us", median(miss))
	r.set("store.put_us", "us", median(put))
	return nil
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
