package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"recyclesim/internal/config"
	"recyclesim/internal/obs/trace"
	"recyclesim/internal/store"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testSpec(name string) Spec {
	m := config.Big216()
	m.Name = name
	return Spec{Machine: m, Features: config.Features{}, Workloads: []string{"mix"}, Insts: 1000}
}

func testRecord() *store.Record { return &store.Record{Version: 1, Key: "k"} }

// instant makes Sleep a no-op so retry loops run without wall time.
func instant(context.Context, time.Duration) error { return nil }

func newTestDispatcher(clk *fakeClock, local func(ctx context.Context, spec Spec) (*store.Record, error)) *Dispatcher {
	cfg := Config{
		Local:       local,
		LeaseTTL:    10 * time.Second,
		MaxRequeues: 2,
		Sleep:       instant,
	}
	if clk != nil {
		cfg.Now = clk.Now
	}
	return NewDispatcher(cfg)
}

func TestComputeLocalWhenNoWorkers(t *testing.T) {
	calls := 0
	d := newTestDispatcher(nil, func(ctx context.Context, spec Spec) (*store.Record, error) {
		calls++
		return testRecord(), nil
	})
	rec, err := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
	if err != nil || rec == nil {
		t.Fatalf("Compute = %v, %v", rec, err)
	}
	if calls != 1 {
		t.Fatalf("local calls = %d, want 1", calls)
	}
	c := d.Counters()
	if c.LocalComputes != 1 || c.RemoteComputes != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestComputeRemoteRoundTrip(t *testing.T) {
	d := newTestDispatcher(nil, func(ctx context.Context, spec Spec) (*store.Record, error) {
		t.Error("local compute must not run when a worker serves the cell")
		return nil, errors.New("unexpected")
	})
	info := d.RegisterWorker("w", 1)

	done := make(chan error, 1)
	go func() {
		rec, err := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
		if err == nil && rec == nil {
			err = errors.New("nil record")
		}
		done <- err
	}()

	g := waitLease(t, d, info.Worker)
	if g.Key != "key" {
		t.Fatalf("lease key = %q", g.Key)
	}
	if stale := d.Complete(info.Worker, g.Lease, testRecord(), "", false); stale {
		t.Fatal("fresh completion flagged stale")
	}
	if err := <-done; err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if c := d.Counters(); c.RemoteComputes != 1 {
		t.Fatalf("remote computes = %d, want 1", c.RemoteComputes)
	}
}

// waitLease polls a zero-wait Lease until the queued cell shows up.
func waitLease(t *testing.T, d *Dispatcher, workerID string) *Grant {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g, err := d.Lease(context.Background(), workerID, 0)
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if g != nil {
			return g
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no lease granted within deadline")
	return nil
}

func TestLeaseExpiryRequeuesAndDropsStaleResult(t *testing.T) {
	clk := newFakeClock()
	d := newTestDispatcher(clk, nil)
	info := d.RegisterWorker("w", 2)

	done := make(chan *store.Record, 1)
	go func() {
		rec, _ := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
		done <- rec
	}()

	first := waitLease(t, d, info.Worker)
	// Keep the worker alive but let the lease lapse (no renewal).
	clk.Advance(11 * time.Second)
	_ = d.Heartbeat(info.Worker, nil) // liveness only; not renewing the lease
	if n := d.Reap(); n != 1 {
		t.Fatalf("Reap requeued %d leases, want 1", n)
	}

	second := waitLease(t, d, info.Worker)
	if second.Lease == first.Lease {
		t.Fatal("requeued cell reused the expired lease ID")
	}
	// The original holder answers late: dropped as stale.
	if stale := d.Complete(info.Worker, first.Lease, testRecord(), "", false); !stale {
		t.Fatal("expired lease completion not flagged stale")
	}
	want := testRecord()
	want.Key = "fresh"
	if stale := d.Complete(info.Worker, second.Lease, want, "", false); stale {
		t.Fatal("current lease completion flagged stale")
	}
	if rec := <-done; rec == nil || rec.Key != "fresh" {
		t.Fatalf("Compute returned %+v, want the current lease's record", rec)
	}
	c := d.Counters()
	if c.LeasesExpired != 1 || c.StaleResults != 1 || c.Requeues != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestWorkerLostRequeuesToSurvivor(t *testing.T) {
	clk := newFakeClock()
	d := newTestDispatcher(clk, nil)
	a := d.RegisterWorker("a", 1)
	b := d.RegisterWorker("b", 1)

	done := make(chan *store.Record, 1)
	go func() {
		rec, _ := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
		done <- rec
	}()

	g := waitLease(t, d, a.Worker)
	// a goes silent past ExpireAfter; b stays warm.
	clk.Advance(21 * time.Second)
	_ = d.Heartbeat(b.Worker, nil)
	d.Reap()
	if _, err := d.Lease(context.Background(), a.Worker, 0); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("lost worker Lease err = %v, want ErrUnknownWorker", err)
	}
	if stale := d.Complete(a.Worker, g.Lease, testRecord(), "", false); !stale {
		t.Fatal("dead worker's completion not flagged stale")
	}

	g2 := waitLease(t, d, b.Worker)
	if stale := d.Complete(b.Worker, g2.Lease, testRecord(), "", false); stale {
		t.Fatal("survivor completion flagged stale")
	}
	if rec := <-done; rec == nil {
		t.Fatal("Compute returned nil record")
	}
	if c := d.Counters(); c.WorkersLost != 1 {
		t.Fatalf("workers lost = %d, want 1", c.WorkersLost)
	}
}

func TestLastWorkerLossFallsBackLocal(t *testing.T) {
	localCh := make(chan struct{}, 1)
	d := newTestDispatcher(nil, func(ctx context.Context, spec Spec) (*store.Record, error) {
		localCh <- struct{}{}
		return testRecord(), nil
	})
	info := d.RegisterWorker("w", 1)

	done := make(chan error, 1)
	go func() {
		_, err := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
		done <- err
	}()
	waitLease(t, d, info.Worker)
	if err := d.Deregister(info.Worker); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	select {
	case <-localCh:
	case <-time.After(5 * time.Second):
		t.Fatal("local fallback compute never ran")
	}
	if err := <-done; err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if c := d.Counters(); c.LocalFallbacks != 1 || c.LocalComputes != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestMaxRequeuesDegradesToLocal(t *testing.T) {
	clk := newFakeClock()
	localCh := make(chan struct{}, 1)
	d := NewDispatcher(Config{
		Local: func(ctx context.Context, spec Spec) (*store.Record, error) {
			localCh <- struct{}{}
			return testRecord(), nil
		},
		LeaseTTL:    10 * time.Second,
		MaxRequeues: 2,
		Now:         clk.Now,
		Sleep:       instant,
	})
	info := d.RegisterWorker("w", 1)
	go func() {
		_, _ = d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
	}()
	// Expire the lease MaxRequeues+1 times: the cell stops trusting
	// the fleet and computes locally.
	for i := 0; i < 3; i++ {
		waitLease(t, d, info.Worker)
		clk.Advance(11 * time.Second)
		_ = d.Heartbeat(info.Worker, nil)
		d.Reap()
	}
	select {
	case <-localCh:
	case <-time.After(5 * time.Second):
		t.Fatal("cell never degraded to local compute")
	}
	if c := d.Counters(); c.LocalFallbacks != 1 || c.Requeues != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestHeartbeatRenewalCappedByMaxLifetime(t *testing.T) {
	clk := newFakeClock()
	d := NewDispatcher(Config{
		LeaseTTL:         10 * time.Second,
		MaxLeaseLifetime: 25 * time.Second,
		ExpireAfter:      time.Hour, // isolate lease expiry from worker death
		Local: func(ctx context.Context, spec Spec) (*store.Record, error) {
			return testRecord(), nil
		},
		Now:   clk.Now,
		Sleep: instant,
	})
	info := d.RegisterWorker("w", 1)
	go func() {
		_, _ = d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
	}()
	g := waitLease(t, d, info.Worker)
	// Renew forever: past granted+MaxLeaseLifetime the renewals stop
	// extending the deadline and the reaper takes the lease anyway.
	for i := 0; i < 4; i++ {
		clk.Advance(8 * time.Second)
		if err := d.Heartbeat(info.Worker, []uint64{g.Lease}); err != nil {
			t.Fatalf("Heartbeat: %v", err)
		}
		d.Reap()
	}
	if c := d.Counters(); c.LeasesExpired != 1 {
		t.Fatalf("hung compute's lease never expired despite heartbeats: %+v", c)
	}
}

func TestRemoteErrorRetriesThenSucceeds(t *testing.T) {
	var slept []time.Duration
	d := NewDispatcher(Config{
		LeaseTTL:   10 * time.Second,
		Retries:    2,
		RetryDelay: 100 * time.Millisecond,
		Rand:       func() float64 { return 0 },
		Sleep: func(_ context.Context, dur time.Duration) error {
			slept = append(slept, dur)
			return nil
		},
		Local: func(ctx context.Context, spec Spec) (*store.Record, error) {
			t.Error("unexpected local compute")
			return nil, errors.New("unexpected")
		},
	})
	info := d.RegisterWorker("w", 1)
	done := make(chan error, 1)
	go func() {
		_, err := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
		done <- err
	}()
	g := waitLease(t, d, info.Worker)
	d.Complete(info.Worker, g.Lease, nil, "transient blowup", false)
	g2 := waitLease(t, d, info.Worker)
	d.Complete(info.Worker, g2.Lease, testRecord(), "", false)
	if err := <-done; err != nil {
		t.Fatalf("Compute after retry: %v", err)
	}
	if len(slept) != 1 || slept[0] != 50*time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want [50ms]", slept)
	}
	c := d.Counters()
	if c.RemoteErrors != 1 || c.RemoteComputes != 1 || c.Retries != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestLocalBackoffCancelReturnsCancellation: a context canceled while
// a local retry is backing off ends Compute with the cancellation, not
// the previous attempt's compute error, and no further attempt runs.
// This is the job server's only retry loop, so a shutdown mid-backoff
// must read as a cancellation in the cell's error record.
func TestLocalBackoffCancelReturnsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	computeErr := errors.New("recyclesim: simulator panic")
	var calls int
	d := NewDispatcher(Config{
		Local: func(context.Context, Spec) (*store.Record, error) {
			calls++
			return nil, computeErr
		},
		Retries:    3,
		RetryDelay: time.Second,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel()
			return ctx.Err()
		},
	})
	_, err := d.Compute(ctx, testSpec("m"), "key", trace.Ctx{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Compute err = %v, want context.Canceled", err)
	}
	if errors.Is(err, computeErr) {
		t.Fatalf("Compute err = %v, reports the compute error instead of the cancellation", err)
	}
	if calls != 1 {
		t.Fatalf("local attempts = %d, want 1 (none after the canceled backoff)", calls)
	}
	if c := d.Counters(); c.LocalComputes != 1 || c.Retries != 1 {
		t.Fatalf("counters = %+v, want 1 local compute and 1 retry", c)
	}
}

// loopEnv is what one TestComputeAttemptLoop case drives: the
// dispatcher, the compute's cancel, and the IDs of workers a local
// attempt attached mid-compute.
type loopEnv struct {
	d      *Dispatcher
	cancel context.CancelFunc
	late   chan string
}

// attach registers a worker mid-compute and hands its ID to the drive
// script.
func (e *loopEnv) attach() string {
	id := e.d.RegisterWorker("late", 1).Worker
	e.late <- id
	return id
}

// loopCounters is the slice of Counters the attempt loop moves.
type loopCounters struct {
	Leases, RemoteErrors, RemoteComputes, LocalComputes, Fallbacks, Retries uint64
}

// TestComputeAttemptLoop pins Compute's single attempt loop with
// counters: each iteration is one remote round or one local attempt, a
// fleet fallback keeps the cell local, a refused enqueue does not, and
// an attempt that fails after cancellation is not retried.  Retries is
// 1 throughout.
func TestComputeAttemptLoop(t *testing.T) {
	errFail := errors.New("injected compute failure")
	cases := []struct {
		name   string
		worker bool // a worker is attached before Compute starts
		// local decides the n-th (1-based) local attempt; drive plays
		// the workers on the test goroutine while Compute runs.
		local   func(e *loopEnv, n int) error
		drive   func(t *testing.T, e *loopEnv, worker string)
		wantErr bool
		want    loopCounters
	}{
		{
			name:   "remote error retries on the fleet",
			worker: true,
			drive: func(t *testing.T, e *loopEnv, w string) {
				g := waitLease(t, e.d, w)
				e.d.Complete(w, g.Lease, nil, "transient blowup", false)
				g = waitLease(t, e.d, w)
				e.d.Complete(w, g.Lease, testRecord(), "", false)
			},
			want: loopCounters{Leases: 2, RemoteErrors: 1, RemoteComputes: 1, Retries: 1},
		},
		{
			// The retry stays local even though a worker attached
			// during the failed attempt: no second lease.
			name:   "local error after a fallback retries locally",
			worker: true,
			local: func(e *loopEnv, n int) error {
				if n == 1 {
					e.attach()
					return errFail
				}
				return nil
			},
			drive: func(t *testing.T, e *loopEnv, w string) {
				waitLease(t, e.d, w)
				if err := e.d.Deregister(w); err != nil {
					t.Fatal(err)
				}
			},
			want: loopCounters{Leases: 1, LocalComputes: 2, Fallbacks: 1, Retries: 1},
		},
		{
			name: "refused enqueue retries on the fleet",
			local: func(e *loopEnv, n int) error {
				e.attach()
				return errFail
			},
			drive: func(t *testing.T, e *loopEnv, _ string) {
				w := <-e.late
				g := waitLease(t, e.d, w)
				e.d.Complete(w, g.Lease, testRecord(), "", false)
			},
			want: loopCounters{Leases: 1, RemoteComputes: 1, LocalComputes: 1, Retries: 1},
		},
		{
			name: "a failure after cancellation is not retried",
			local: func(e *loopEnv, n int) error {
				e.cancel()
				return errFail
			},
			wantErr: true,
			want:    loopCounters{LocalComputes: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			e := &loopEnv{cancel: cancel, late: make(chan string, 4)}
			var n int
			e.d = NewDispatcher(Config{
				LeaseTTL: 10 * time.Second,
				Retries:  1,
				Sleep:    instant,
				Local: func(context.Context, Spec) (*store.Record, error) {
					n++
					if tc.local == nil {
						t.Error("unexpected local compute")
						return nil, errFail
					}
					if err := tc.local(e, n); err != nil {
						return nil, err
					}
					return testRecord(), nil
				},
			})
			var w string
			if tc.worker {
				w = e.d.RegisterWorker("w", 1).Worker
			}
			done := make(chan error, 1)
			go func() {
				_, err := e.d.Compute(ctx, testSpec("m"), "key", trace.Ctx{})
				done <- err
			}()
			if tc.drive != nil {
				tc.drive(t, e, w)
			}
			if err := <-done; (err != nil) != tc.wantErr {
				t.Fatalf("Compute err = %v, want error: %v", err, tc.wantErr)
			}
			c := e.d.Counters()
			got := loopCounters{c.LeasesGranted, c.RemoteErrors, c.RemoteComputes, c.LocalComputes, c.LocalFallbacks, c.Retries}
			if got != tc.want {
				t.Errorf("counters = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestCanceledSampledCellNotRetried: a sampled cell whose context is
// canceled mid-compute fails once, as a cancellation, and spends no
// retry of the budget.
func TestCanceledSampledCellNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := NewDispatcher(Config{
		Retries: 2,
		Sleep:   instant,
		Local: func(ctx context.Context, spec Spec) (*store.Record, error) {
			cancel()
			return Execute(ctx, spec)
		},
	})
	spec := testSpec("m")
	spec.Workloads = []string{"gcc"}
	spec.Insts = 200_000
	spec.Sampling = &store.Sampling{}
	if _, err := d.Compute(ctx, spec, "key", trace.Ctx{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compute err = %v, want context.Canceled", err)
	}
	if c := d.Counters(); c.LocalComputes != 1 || c.Retries != 0 {
		t.Fatalf("counters = %+v, want 1 local compute and 0 retries", c)
	}
}

func TestRemoteErrorExhaustsRetries(t *testing.T) {
	d := newTestDispatcher(nil, nil) // Retries = 0
	info := d.RegisterWorker("w", 1)
	done := make(chan error, 1)
	go func() {
		_, err := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
		done <- err
	}()
	g := waitLease(t, d, info.Worker)
	d.Complete(info.Worker, g.Lease, nil, "sim diverged", false)
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "sim diverged") {
		t.Fatalf("Compute err = %v, want the worker-reported error", err)
	}
}

func TestComputeCancelAbandonsTask(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	info := d.RegisterWorker("w", 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.Compute(ctx, testSpec("m"), "key", trace.Ctx{})
		done <- err
	}()
	g := waitLease(t, d, info.Worker)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Compute err = %v, want context.Canceled", err)
	}
	// The worker's eventual result lands stale, not delivered.
	if stale := d.Complete(info.Worker, g.Lease, testRecord(), "", false); !stale {
		t.Fatal("abandoned task's completion not flagged stale")
	}
}

func TestLongPollHandsOffDirectly(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	info := d.RegisterWorker("w", 1)
	leased := make(chan *Grant, 1)
	go func() {
		g, err := d.Lease(context.Background(), info.Worker, 5*time.Second)
		if err != nil {
			t.Errorf("Lease: %v", err)
		}
		leased <- g
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	go func() {
		_, _ = d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
	}()
	select {
	case g := <-leased:
		if g == nil {
			t.Fatal("parked poller got nil grant")
		}
		d.Complete(info.Worker, g.Lease, testRecord(), "", false)
	case <-time.After(5 * time.Second):
		t.Fatal("parked poller never woke")
	}
}

func TestLongPollTimeout(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	info := d.RegisterWorker("w", 1)
	g, err := d.Lease(context.Background(), info.Worker, 10*time.Millisecond)
	if err != nil || g != nil {
		t.Fatalf("Lease = %v, %v, want nil, nil on timeout", g, err)
	}
}

// TestParkedPollsShareOneGrant: two workers' parked polls are both
// woken by one enqueue, but only one can pop the cell; the other
// re-parks and returns nil at its timeout.
func TestParkedPollsShareOneGrant(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	type poll struct {
		worker  string
		g       *Grant
		err     error
		elapsed time.Duration
	}
	const wait = 200 * time.Millisecond
	polls := make(chan poll, 2)
	for _, name := range []string{"a", "b"} {
		id := d.RegisterWorker(name, 1).Worker
		go func() {
			start := time.Now()
			g, err := d.Lease(context.Background(), id, wait)
			polls <- poll{id, g, err, time.Since(start)}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let both pollers park
	done := make(chan *store.Record, 1)
	go func() {
		rec, _ := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
		done <- rec
	}()
	var won *poll
	for i := 0; i < 2; i++ {
		p := <-polls
		if p.err != nil {
			t.Fatalf("Lease(%s): %v", p.worker, p.err)
		}
		if p.g == nil {
			if p.elapsed < wait {
				t.Errorf("losing poll returned nil after %v, before its %v timeout", p.elapsed, wait)
			}
			continue
		}
		if won != nil {
			t.Fatal("one cell granted to both parked polls")
		}
		won = &p
	}
	if won == nil {
		t.Fatal("no parked poll was granted the cell")
	}
	if stale := d.Complete(won.worker, won.g.Lease, testRecord(), "", false); stale {
		t.Fatal("winning poll's completion flagged stale")
	}
	if rec := <-done; rec == nil {
		t.Fatal("Compute returned nil record")
	}
	if c := d.Counters(); c.LeasesGranted != 1 || c.RemoteComputes != 1 {
		t.Fatalf("counters = %+v, want 1 lease granted and 1 remote compute", c)
	}
}

// TestParkedPollOfRemovedWorkerTakesNothing: a poll parked by a worker
// that is removed meanwhile wakes with ErrUnknownWorker instead of
// leasing the cell to a worker the reaper no longer walks, so the cell
// stays queued for a live worker.
func TestParkedPollOfRemovedWorkerTakesNothing(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	a := d.RegisterWorker("a", 1).Worker
	b := d.RegisterWorker("b", 1).Worker
	polled := make(chan error, 1)
	go func() {
		_, err := d.Lease(context.Background(), a, 5*time.Second)
		polled <- err
	}()
	time.Sleep(20 * time.Millisecond) // let a's poll park
	if err := d.Deregister(a); err != nil {
		t.Fatal(err)
	}
	done := make(chan *store.Record, 1)
	go func() {
		rec, _ := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
		done <- rec
	}()
	if err := <-polled; !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("removed worker's parked Lease err = %v, want ErrUnknownWorker", err)
	}
	g := waitLease(t, d, b)
	if stale := d.Complete(b, g.Lease, testRecord(), "", false); stale {
		t.Fatal("live worker's completion flagged stale")
	}
	if rec := <-done; rec == nil {
		t.Fatal("Compute returned nil record")
	}
}

// TestCompleteFromOtherWorkerIsStale: a completion naming a live
// lease that a different worker holds is dropped as stale, and the
// holder's own completion is still delivered.
func TestCompleteFromOtherWorkerIsStale(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	a := d.RegisterWorker("a", 1).Worker
	b := d.RegisterWorker("b", 1).Worker
	done := make(chan *store.Record, 1)
	go func() {
		rec, _ := d.Compute(context.Background(), testSpec("m"), "key", trace.Ctx{})
		done <- rec
	}()
	g := waitLease(t, d, b)
	if stale := d.Complete(a, g.Lease, testRecord(), "", false); !stale {
		t.Fatal("completion from a worker that does not hold the lease not flagged stale")
	}
	want := testRecord()
	want.Key = "from-b"
	if stale := d.Complete(b, g.Lease, want, "", false); stale {
		t.Fatal("leaseholder's completion flagged stale")
	}
	if rec := <-done; rec == nil || rec.Key != "from-b" {
		t.Fatalf("Compute returned %+v, want the leaseholder's record", rec)
	}
	if c := d.Counters(); c.StaleResults != 1 || c.RemoteComputes != 1 {
		t.Fatalf("counters = %+v, want 1 stale result and 1 remote compute", c)
	}
}

func TestWorkerHTTPRoundTrip(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	mux := http.NewServeMux()
	d.Register(mux, "fleet-secret")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Wrong token: every endpoint refuses.
	resp, err := http.Post(srv.URL+"/fleet/register", "application/json", strings.NewReader(`{"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless register status = %d, want 401", resp.StatusCode)
	}

	computed := make(chan string, 1)
	w := NewWorker(WorkerConfig{
		BaseURL:  srv.URL,
		Name:     "httptest",
		Token:    "fleet-secret",
		PollWait: 50 * time.Millisecond,
		Compute: func(ctx context.Context, spec Spec) (*store.Record, error) {
			computed <- spec.Machine.Name
			return testRecord(), nil
		},
	})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	workerDone := make(chan struct{})
	go func() { _ = w.Run(wctx); close(workerDone) }()

	// Wait for the worker's registration to land, else Compute
	// (correctly) degrades to local execution.
	for deadline := time.Now().Add(5 * time.Second); d.Counters().Workers == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}

	rec, err := d.Compute(context.Background(), testSpec("remote-cell"), "key", trace.Ctx{})
	if err != nil || rec == nil {
		t.Fatalf("Compute over HTTP = %v, %v", rec, err)
	}
	if name := <-computed; name != "remote-cell" {
		t.Fatalf("worker computed %q, want remote-cell", name)
	}
	if w.Computes() != 1 {
		t.Fatalf("worker computes = %d, want 1", w.Computes())
	}
	wcancel()
	select {
	case <-workerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not shut down")
	}
	if c := d.Counters(); c.Departs != 1 {
		t.Fatalf("graceful worker exit not recorded as depart: %+v", c)
	}
}

func TestUnknownWorkerGets410(t *testing.T) {
	d := newTestDispatcher(nil, nil)
	mux := http.NewServeMux()
	d.Register(mux, "")
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/fleet/heartbeat", "application/json",
		strings.NewReader(`{"worker":"w99"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unknown worker heartbeat status = %d, want 410", resp.StatusCode)
	}
}
