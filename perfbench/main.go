// Command perfbench is the repository's benchmark.  One run measures
// one workload for a fixed time, checks every simulated result it
// produced, and prints its metrics as JSON:
//
//	bash perfbench/run.sh --workload detailed-sweep --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// again with a CPU profile and timed sub-calls and prints the per-layer
// metrics.  README.md in this directory explains the workloads, the
// metrics and how they relate.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 1

// setups is how many times a workload's set-up runs; setup_s is the
// median.
const setups = 3

//go:embed golden.json
var goldenJSON []byte

var workloads = map[string]func(r *runner) error{
	"detailed-sweep": runDetailedSweep,
	"sampled-sweep":  runSampledSweep,
	"service-hits":   runServiceHits,
	"service-cold":   runServiceCold,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: detailed-sweep, sampled-sweep, service-hits or service-cold")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (generated programs, cell and submission order)")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "run"), "scratch directory for stores")
	regen := fs.String("write-golden", "", "recompute the golden digests of every kernel cell into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *regen != "" {
		if err := writeGolden(ctx, *regen, runtime.NumCPU()); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	runWorkload := workloads[*name]
	if runWorkload == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload detailed-sweep|sampled-sweep|service-hits|service-cold, --seconds >= 1 and --trace 0|1")
		return 2
	}
	g, err := parseGolden(goldenJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	r := &runner{
		ctx:     ctx,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traced == 1,
		nproc:   runtime.NumCPU(),
		dir:     scratch,
		golden:  g,
		stderr:  stderr,
		metrics: map[string]metric{},
	}
	if err := runWorkload(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.finish()
	return r.print(stdout, *name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one run's settings and collects its measurements.
type runner struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	traced  bool
	nproc   int
	dir     string
	golden  *golden
	stderr  io.Writer

	mu                sync.Mutex // guards the attempt accounting: clients check concurrently
	attempted, failed int
	failures          []string

	setupTimes []float64 // seconds, one per set-up
	walls      []float64 // seconds per repetition, plain (untraced) phase
	tracedWall []float64 // seconds per repetition under the CPU profile
	allocMB    []float64 // per plain repetition
	gcCycles   []float64 // per plain repetition
	cpu        []float64 // process CPU seconds per plain repetition
	shares     map[string]float64

	metrics map[string]metric
}

func (r *runner) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// check counts one attempted operation and records err as its failure.
func (r *runner) check(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// setup times fn, which must leave the workload ready to measure.
func (r *runner) setup(fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setupTimes = append(r.setupTimes, time.Since(start).Seconds())
	return nil
}

// measure runs rep back to back for the measured phase; rep returns
// the wall time of its measured part.  A traced run spends the first
// half of the phase untraced and the second half under a CPU profile,
// whose samples are folded into the layer shares.
func (r *runner) measure(rep func() (time.Duration, error)) error {
	if !r.traced {
		return r.phase(r.seconds, rep, &r.walls, true)
	}
	if err := r.phase(r.seconds/2, rep, &r.walls, true); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := r.phase(r.seconds/2, rep, &r.tracedWall, false)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	r.shares = foldShares(stacks)
	return nil
}

func (r *runner) phase(d time.Duration, rep func() (time.Duration, error), walls *[]float64, plain bool) error {
	var ms runtime.MemStats
	// Repetitions run while one more, judged by the median so far,
	// still fits in d, so a run lasts about d however long one
	// repetition is.
	start := time.Now()
	var took []float64
	for len(took) == 0 || time.Since(start).Seconds()+median(took) <= d.Seconds() {
		t0 := time.Now()
		if err := r.ctx.Err(); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		alloc, cycles, cpu := ms.TotalAlloc, ms.NumGC, cpuSeconds()
		wall, err := rep()
		if err != nil {
			return err
		}
		*walls = append(*walls, wall.Seconds())
		took = append(took, time.Since(t0).Seconds())
		if plain {
			runtime.ReadMemStats(&ms)
			r.allocMB = append(r.allocMB, float64(ms.TotalAlloc-alloc)/(1<<20))
			r.gcCycles = append(r.gcCycles, float64(ms.NumGC-cycles))
			r.cpu = append(r.cpu, cpuSeconds()-cpu)
		}
	}
	return nil
}

// finish adds the metrics every workload reports the same way.
func (r *runner) finish() {
	r.set("setup_s", "s", median(r.setupTimes))
	r.set("wall_s", "s", median(r.walls))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	r.set("failed_frac", "ratio", float64(r.failed)/float64(max(r.attempted, 1)))
	r.set("gc.alloc_mb", "MB", median(r.allocMB))
	r.set("gc.cycles", "count", median(r.gcCycles))
	if r.traced {
		r.set("trace.overhead_pct", "%", 100*(median(r.tracedWall)/median(r.walls)-1))
		for name, v := range r.shares {
			r.set(name, "%", v)
		}
	}
}

// print writes the result document (host fingerprint, every metric the
// run measured, failures) and then, as the last line, the result line
// BENCHMARK.json describes: correctness, attempts, failures and the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func (r *runner) print(w io.Writer, name string) int {
	names := endToEnd
	if r.traced {
		names = perLayer
	}
	out := map[string]metric{}
	for _, n := range names {
		// A metric this workload does not measure reads 0.
		out[n.name] = metric{r.metrics[n.name].Value, n.unit}
	}
	doc := map[string]any{
		"benchmark": "perfbench",
		"workload":  name,
		"seed":      r.seed,
		"seconds":   r.seconds.Seconds(),
		"trace":     r.traced,
		"walls_s":   r.walls,
		"traced_s":  r.tracedWall,
		"cpu_s":     r.cpu,
		"setups_s":  r.setupTimes,
		"host":      fingerprint(),
		"metrics":   r.metrics,
		"failures":  r.failures,
	}
	for _, f := range r.failures {
		fmt.Fprintf(r.stderr, "perfbench: FAILED %s\n", f)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return 1
	}
	if err := enc.Encode(map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   out,
	}); err != nil {
		return 1
	}
	return 0
}

type metricName struct{ name, unit string }

// endToEnd are the metrics an untraced run prints; every workload
// defines each of them (README.md gives the per-workload meaning).
var endToEnd = []metricName{
	{"setup_s", "s"}, {"wall_s", "s"}, {"sim_minsts_per_s", "M/s"}, {"cells_per_s", "1/s"},
	{"cell_p50_ms", "ms"}, {"cell_p75_ms", "ms"}, {"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints.  A metric that belongs
// to a layer the workload does not reach reads 0.
var perLayer = func() []metricName {
	var ms []metricName
	for _, n := range append([]string{"core.run.share"}, stageShares...) {
		ms = append(ms, metricName{n, "%"})
	}
	ms = append(ms,
		metricName{"core.smt.ns_per_inst", "ns"}, metricName{"core.rec.ns_per_inst", "ns"},
		metricName{"core.renamed_per_committed", "ratio"}, metricName{"core.fetched_per_committed", "ratio"})
	for _, p := range selfPackages {
		ms = append(ms, metricName{p + ".share", "%"})
	}
	ms = append(ms,
		metricName{"recycle.recycled_pct", "%"}, metricName{"recycle.reused_pct", "%"},
		metricName{"tme.forks_per_kinst", "1/kinst"}, metricName{"bpred.mispredict_pct", "%"},
		metricName{"tme.miss_coverage_pct", "%"},
		metricName{"sample.clone.share", "%"}, metricName{"emu.ns_per_inst", "ns"},
		metricName{"sample.observe_ns", "ns"}, metricName{"sample.clone_us", "us"},
		metricName{"sample.clone_kb", "KB"}, metricName{"sample.detailed_frac", "ratio"},
		metricName{"ipc_err_max_pct", "%"},
		metricName{"gc.share", "%"}, metricName{"gc.alloc_mb", "MB"}, metricName{"gc.cycles", "count"},
		metricName{"store.get_hit_us", "us"}, metricName{"store.get_miss_us", "us"},
		metricName{"store.put_us", "us"}, metricName{"store.disk_hits", "count"},
		metricName{"store.computes", "count"}, metricName{"store.flight_shares", "count"},
		metricName{"job_p50_ms", "ms"}, metricName{"job_p90_ms", "ms"},
		metricName{"jobs.submit_ms", "ms"}, metricName{"jobs.first_cell_ms", "ms"},
		metricName{"jobs.stream_ms", "ms"}, metricName{"jobs.cell_overhead_us", "us"},
		metricName{"http.share", "%"}, metricName{"jobs.queue_us", "us"},
		metricName{"jobs.lookup_us", "us"}, metricName{"jobs.stream_line_us", "us"},
		metricName{"fleet.leases_granted", "count"}, metricName{"fleet.requeues", "count"},
		metricName{"fleet.local_computes", "count"}, metricName{"fleet.remote_computes", "count"},
		metricName{"fleet.lease_us", "us"}, metricName{"fleet.compute_ms", "ms"},
		metricName{"fleet.share", "%"}, metricName{"trace.overhead_pct", "%"},
		metricName{"failed_frac", "ratio"},
	)
	return ms
}()
