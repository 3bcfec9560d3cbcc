package recyclesim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunSampledBasic: the facade produces a usable estimate with the
// default schedule and honours the Sampling override.
func TestRunSampledBasic(t *testing.T) {
	res, err := RunSampled(Options{
		Machine:   MachineByName("big.2.16"),
		Features:  PresetByName("REC/RS/RU"),
		Workloads: []string{"gcc"},
		MaxInsts:  100_000,
		Sampling:  &Sampling{Period: 10_000, IntervalLen: 500, WarmupLen: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals == nil || len(res.Intervals) != 10 {
		t.Fatalf("intervals = %d, want 10", len(res.Intervals))
	}
	if res.IPC <= 0 || res.IPCLo <= 0 || res.IPCHi < res.IPCLo {
		t.Errorf("bad estimate: IPC %v CI [%v, %v]", res.IPC, res.IPCLo, res.IPCHi)
	}
	var sb strings.Builder
	if err := res.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sampled") || !strings.Contains(sb.String(), "CI95%") {
		t.Errorf("report:\n%s", sb.String())
	}
}

// TestRunSampledNilSampling: a nil Sampling selects the defaults.
func TestRunSampledNilSampling(t *testing.T) {
	res, err := RunSampled(Options{
		Machine:   MachineByName("big.2.16"),
		Features:  SMT,
		Workloads: []string{"compress"},
		MaxInsts:  100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Period != 20_000 || res.IntervalLen != 1_000 || res.WarmupLen != 1_000 {
		t.Errorf("defaults not applied: P=%d L=%d W=%d", res.Period, res.IntervalLen, res.WarmupLen)
	}
}

// TestRunSampledRejectsMultiProgram: interval seeding restores one
// architectural state, so sampled mode is single-program only.
func TestRunSampledRejectsMultiProgram(t *testing.T) {
	_, err := RunSampled(Options{
		Machine:   MachineByName("big.2.16"),
		Features:  SMT,
		Workloads: []string{"compress", "gcc"},
	})
	if err == nil || !strings.Contains(err.Error(), "one program") {
		t.Errorf("err = %v", err)
	}
	if _, err := RunSampled(Options{Machine: MachineByName("big.2.16")}); err == nil {
		t.Error("no workloads: expected error")
	}
}

// TestRunSampledContextCancel: a pre-canceled context stops the run
// with the context's error.
func TestRunSampledContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSampledContext(ctx, Options{
		Machine:   MachineByName("big.2.16"),
		Features:  SMT,
		Workloads: []string{"gcc"},
		MaxInsts:  200_000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRunSampledCancelIsTyped: a sampled run stopped by its context
// reports the same typed *SimError as a detailed one — ErrCanceled or
// ErrDeadline — still wrapping the context's own error.
func TestRunSampledCancelIsTyped(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	for _, tc := range []struct {
		name      string
		ctx       context.Context
		kind, ctr error
	}{
		{"canceled", canceled, ErrCanceled, context.Canceled},
		{"deadline", expired, ErrDeadline, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunSampledContext(tc.ctx, Options{
				Machine:   MachineByName("big.2.16"),
				Features:  SMT,
				Workloads: []string{"gcc"},
				MaxInsts:  200_000,
			})
			if !errors.Is(err, tc.kind) || !errors.Is(err, tc.ctr) {
				t.Fatalf("err = %v, want %v wrapping %v", err, tc.kind, tc.ctr)
			}
			var se *SimError
			if !errors.As(err, &se) || se.Fingerprint == "" {
				t.Errorf("err = %#v, want a *SimError with a fingerprint", err)
			}
		})
	}
}
