// Command benchgate runs the simulator benchmark suite and gates
// performance regressions.
//
// It executes the root-package benchmarks (the throughput benchmark
// plus the figure/table regenerators) via `go test -bench`, parses the
// standard benchmark output into a JSON document, compares the
// simInsts/s and B/op metrics against the committed baseline, and then
// rewrites the baseline file with the fresh numbers:
//
//	benchgate                 # gate against BENCH_simulator.json, then refresh it
//	benchgate -tolerance 0.2  # allow up to 20% slowdown or allocation growth
//	benchgate -update         # refresh the baseline without gating
//
// Exit status is 0 on success, 1 when any simInsts/s metric fell, or
// any B/op metric grew, by more than the tolerance against the
// baseline, and 2 on harness errors.
// `make bench` is the canonical invocation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Doc is the schema of BENCH_simulator.json: benchmark name to metric
// name to value (ns/op, simInsts/s, B/op, allocs/op, IPC, ...).
type Doc struct {
	Benchtime string                        `json:"benchtime"`
	Results   map[string]map[string]float64 `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	bench := fs.String("bench", "SimulatorThroughput|PipetraceOverhead|Figure[3-6]|Table1|Sampled", "benchmark regexp passed to go test")
	benchtime := fs.String("benchtime", "1x", "benchtime passed to go test")
	out := fs.String("out", "BENCH_simulator.json", "baseline file to gate against and rewrite")
	tolerance := fs.Float64("tolerance", 0.10, "allowed fractional simInsts/s drop or B/op growth before failing")
	update := fs.Bool("update", false, "rewrite the baseline without gating")
	metricsText := fs.String("metrics-text", "", "also write the fresh results as Prometheus-style text to this file (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cmd := exec.Command("go", "test", "-run", "^$", "-bench", *bench,
		"-benchtime", *benchtime, "-benchmem", ".")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: go test -bench failed: %v\n", err)
		return 2
	}
	fresh := &Doc{Benchtime: *benchtime, Results: parseBench(string(raw))}
	if len(fresh.Results) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark results parsed from go test output\n")
		return 2
	}

	status := 0
	if !*update {
		if base, err := load(*out); err == nil {
			status = gate(base, fresh, *tolerance)
		} else if os.IsNotExist(err) {
			fmt.Printf("benchgate: no baseline at %s; recording fresh numbers\n", *out)
		} else {
			fmt.Fprintf(os.Stderr, "benchgate: reading baseline: %v\n", err)
			return 2
		}
	}

	if err := save(*out, fresh); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: writing %s: %v\n", *out, err)
		return 2
	}
	if *metricsText != "" {
		if err := writeMetricsText(*metricsText, fresh); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: writing metrics text: %v\n", err)
			return 2
		}
	}
	fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", *out, len(fresh.Results))
	return status
}

// writeMetricsText renders the fresh results as sorted Prometheus-style
// lines, one per (benchmark, metric) pair.
func writeMetricsText(path string, d *Doc) error {
	var sb strings.Builder
	names := make([]string, 0, len(d.Results))
	for name := range d.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		metrics := d.Results[name]
		keys := make([]string, 0, len(metrics))
		for k := range metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "bench_result{benchmark=%q,metric=%q} %s\n",
				name, k, strconv.FormatFloat(metrics[k], 'g', -1, 64))
		}
	}
	if path == "-" {
		_, err := os.Stdout.WriteString(sb.String())
		return err
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// parseBench extracts metric values from standard `go test -bench`
// output lines of the form:
//
//	BenchmarkName/sub-8   2   44586794 ns/op   1346016 simInsts/s   ...
//
// The trailing "-8" GOMAXPROCS suffix is stripped so baselines compare
// across machines with different core counts.
func parseBench(out string) map[string]map[string]float64 {
	results := make(map[string]map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		metrics := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			metrics[fields[i+1]] = v
		}
		if len(metrics) > 0 {
			results[name] = metrics
		}
	}
	return results
}

// gatedMetrics are the metrics the gate compares, each with the
// direction a regression moves it: throughput falls, allocation grows.
var gatedMetrics = []struct {
	name        string
	lowerBetter bool
}{
	{"simInsts/s", false},
	{"B/op", true},
}

// gate compares every gated metric present in both documents and
// reports (to stdout) and counts regressions beyond the tolerance.
// Benchmarks present on only one side — a benchmark added since the
// baseline was recorded, one that has since been removed, or one a
// -bench subset did not run — are skipped with a warning rather than
// failing the gate, so renaming or extending the suite does not
// require hand-editing the baseline.
func gate(base, fresh *Doc, tolerance float64) int {
	names := make([]string, 0, len(fresh.Results))
	for name := range fresh.Results {
		names = append(names, name)
	}
	var notRun []string
	for name := range base.Results {
		if _, ok := fresh.Results[name]; !ok {
			notRun = append(notRun, name)
		}
	}
	sort.Strings(names)
	sort.Strings(notRun)
	if len(notRun) > 0 {
		fmt.Printf("benchgate: warning: %d baseline benchmark(s) not in this run; skipping: %s\n",
			len(notRun), strings.Join(notRun, " "))
	}
	failed := 0
	for _, name := range names {
		baseMetrics, ok := base.Results[name]
		if !ok {
			fmt.Printf("benchgate: warning: %s not in baseline; skipping (will be recorded)\n", name)
			continue
		}
		for _, m := range gatedMetrics {
			want, okb := baseMetrics[m.name]
			got, okf := fresh.Results[name][m.name]
			switch {
			case !okb && !okf:
				continue // neither side carries the metric (e.g. a pure ns/op benchmark)
			case !okb || !okf:
				fmt.Printf("benchgate: warning: %s %s on one side only; skipping\n", name, m.name)
				continue
			case want <= 0:
				fmt.Printf("benchgate: warning: %s baseline %s is %g; skipping\n", name, m.name, want)
				continue
			}
			change := got/want - 1
			worse := change < -tolerance
			if m.lowerBetter {
				worse = change > tolerance
			}
			mark := "ok"
			if worse {
				mark = "REGRESSION"
				failed++
			}
			fmt.Printf("benchgate: %-40s %12.0f -> %12.0f %-10s (%+.1f%%) %s\n",
				name, want, got, m.name, 100*change, mark)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d metric(s) regressed more than %.0f%% against baseline\n",
			failed, 100*tolerance)
		return 1
	}
	return 0
}

func load(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

func save(path string, d *Doc) error {
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
