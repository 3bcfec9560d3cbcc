package main

import (
	"context"
	"strings"
	"testing"

	"recyclesim"
	"recyclesim/internal/fleet"
)

func TestCheckDigest(t *testing.T) {
	ref := map[string]string{"gcc/SMT": "abc"}
	if err := checkDigest(ref, "gcc/SMT", "abc"); err != nil {
		t.Errorf("matching digest: %v", err)
	}
	if err := checkDigest(ref, "gcc/SMT", "abd"); err == nil || !strings.Contains(err.Error(), "golden abc") {
		t.Errorf("mismatch not reported: %v", err)
	}
	if err := checkDigest(ref, "li/SMT", "abc"); err == nil || !strings.Contains(err.Error(), "no golden digest") {
		t.Errorf("missing cell not reported: %v", err)
	}
}

func TestDigestSeesEveryCounter(t *testing.T) {
	a := &recyclesim.Result{Cycles: 100, Committed: 150, PerProgram: []uint64{150}}
	b := *a
	if digest(a) != digest(&b) {
		t.Fatal("equal results digest differently")
	}
	b.Reused++
	if digest(a) == digest(&b) {
		t.Error("a changed counter kept the digest")
	}
	b = *a
	b.PerProgram = []uint64{149}
	if digest(a) == digest(&b) {
		t.Error("a changed per-program count kept the digest")
	}
}

func TestParseGoldenChecksBudgets(t *testing.T) {
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatalf("checked-in golden data: %v", err)
	}
	if len(g.Detailed) != 48 || len(g.Sampled) != 40 || len(g.Service) != 48 {
		t.Errorf("golden data has %d detailed, %d sampled, %d service cells; want 48, 40, 48",
			len(g.Detailed), len(g.Sampled), len(g.Service))
	}
	stale := strings.Replace(string(goldenJSON), `"service_insts": 20000`, `"service_insts": 30000`, 1)
	if _, err := parseGolden([]byte(stale)); err == nil {
		t.Error("golden data for other budgets was accepted")
	}
}

// TestGoldenServiceCell recomputes one service cell and checks it
// against the checked-in digest, so a stale golden file fails here
// before it fails a benchmark run.
func TestGoldenServiceCell(t *testing.T) {
	g, err := parseGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := fleet.Execute(context.Background(), serviceSpec("li", "REC/RS/RU"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(g.Service, "li/REC/RS/RU", serviceDigest(rec.Stats, rec.Metrics)); err != nil {
		t.Error(err)
	}
}

func TestAddSelfTimes(t *testing.T) {
	trace := []byte(`{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"x"}},
{"name":"job","cat":"svc","ph":"X","ts":0,"dur":1000,"pid":0,"tid":0,"args":{"span":1,"parent":0}},
{"name":"cell","cat":"svc","ph":"X","ts":5,"dur":600,"pid":0,"tid":2,"args":{"span":2,"parent":1}},
{"name":"queue","cat":"svc","ph":"X","ts":5,"dur":100,"pid":0,"tid":2,"args":{"span":3,"parent":2}},
{"name":"lookup","cat":"svc","ph":"X","ts":105,"dur":50,"pid":0,"tid":2,"args":{"span":4,"parent":2,"recheck":1}},
{"name":"stream","cat":"svc","ph":"X","ts":700,"dur":20,"pid":0,"tid":2,"args":{"span":5,"parent":2}}
]}`)
	spans := map[string][]float64{}
	if err := addSelfTimes(trace, spans); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"job": 400, "cell": 430, "queue": 100, "lookup": 50, "stream": 20} {
		if got := spans[name]; len(got) != 1 || got[0] != want {
			t.Errorf("%s self time = %v, want [%v]", name, got, want)
		}
	}
	if _, ok := spans["process_name"]; ok {
		t.Error("metadata event counted as a span")
	}
}
