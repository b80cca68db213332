package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// block parks one job in the scheduler and returns a release func plus
// a channel that closes once the job is running.
func block(t *testing.T, s *Scheduler, tenant string, pri Priority) (release func(), running chan struct{}) {
	t.Helper()
	running = make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Run(context.Background(), tenant, pri, func(context.Context, *Grant) error {
			close(running)
			<-gate
			return nil
		})
	}()
	return func() { close(gate); <-done }, running
}

// enqueue starts a Run that records its admission order, waiting until
// the scheduler has it queued before returning.
func enqueue(t *testing.T, s *Scheduler, tenant string, pri Priority, order *[]string, mu *sync.Mutex, wg *sync.WaitGroup) {
	t.Helper()
	before := s.Snapshot().QueueDepth
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Run(context.Background(), tenant, pri, func(context.Context, *Grant) error {
			mu.Lock()
			*order = append(*order, tenant)
			mu.Unlock()
			return nil
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().QueueDepth <= before {
		if time.Now().After(deadline) {
			t.Fatalf("job for %s never queued", tenant)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFairInterleaving pins the SFQ policy: with one job slot and two
// tenants backlogged five jobs each — the big tenant enqueued first —
// admissions alternate between the tenants instead of draining the
// first tenant's backlog. A 10x backlog cannot starve the small tenant.
func TestFairInterleaving(t *testing.T) {
	s := New(Config{MaxActive: 1})
	release, running := block(t, s, "warm", Background)
	<-running

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		enqueue(t, s, "big", Background, &order, &mu, &wg)
	}
	for i := 0; i < 5; i++ {
		enqueue(t, s, "small", Background, &order, &mu, &wg)
	}
	release()
	wg.Wait()

	want := []string{"big", "small", "big", "small", "big", "small", "big", "small", "big", "small"}
	if len(order) != len(want) {
		t.Fatalf("completed %d jobs, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order %v, want alternating %v", order, want)
		}
	}
}

// TestInteractivePreemptsQueuedBackground backlogs the Background band
// and then submits an Interactive job: it must be admitted before every
// queued Background job regardless of its later finish tag.
func TestInteractivePreemptsQueuedBackground(t *testing.T) {
	s := New(Config{MaxActive: 1})
	release, running := block(t, s, "warm", Background)
	<-running

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		enqueue(t, s, "auto", Background, &order, &mu, &wg)
	}
	enqueue(t, s, "operator", Interactive, &order, &mu, &wg)
	release()
	wg.Wait()

	if order[0] != "operator" {
		t.Fatalf("admission order %v: operator did not preempt the queued background backlog", order)
	}
}

// TestWorkerBoundNeverExceeded hammers the pool from many concurrent
// jobs and asserts the global invariant the chaos checker watches: the
// sum of granted slots never exceeds Workers, and active jobs never
// exceed MaxActive. Run under -race this also shakes out dispatch races.
func TestWorkerBoundNeverExceeded(t *testing.T) {
	const workers, maxActive = 4, 3
	s := New(Config{Workers: workers, MaxActive: maxActive})
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		tenant := string(rune('a' + i%6))
		go func() {
			defer wg.Done()
			_ = s.Run(context.Background(), tenant, Priority(i%2), func(_ context.Context, g *Grant) error {
				for rem := 5; rem > 0; {
					n := g.Acquire(rem)
					if cur := inFlight.Add(int64(n)); cur > peak.Load() {
						peak.Store(cur)
					}
					time.Sleep(200 * time.Microsecond)
					inFlight.Add(int64(-n))
					g.Release(n)
					rem -= n
				}
				return nil
			})
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.PeakSlots > workers {
		t.Fatalf("peak slots %d > pool %d", snap.PeakSlots, workers)
	}
	if peak.Load() > workers {
		t.Fatalf("observed %d concurrent granted slots > pool %d", peak.Load(), workers)
	}
	if snap.PeakActive > maxActive {
		t.Fatalf("peak active %d > max active %d", snap.PeakActive, maxActive)
	}
	if snap.Active != 0 || snap.SlotsInUse != 0 || snap.QueueDepth != 0 {
		t.Fatalf("scheduler did not drain: %+v", snap)
	}
	if got := snap.CompletedInteractive + snap.CompletedBackground; got != 24 {
		t.Fatalf("completed %d jobs, want 24", got)
	}
}

// TestGrantFairShare: a lone job leases the whole pool; once a second
// job is admitted, a fresh lease is capped at the fair share.
func TestGrantFairShare(t *testing.T) {
	s := New(Config{Workers: 8, MaxActive: 4})
	err := s.Run(context.Background(), "solo", Interactive, func(_ context.Context, g *Grant) error {
		if n := g.Acquire(16); n != 8 {
			return fmt.Errorf("lone job acquired %d, want the full pool 8", n)
		}
		g.Release(8)

		inner := make(chan int, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		hold := make(chan struct{})
		go func() {
			defer wg.Done()
			_ = s.Run(context.Background(), "other", Interactive, func(_ context.Context, g2 *Grant) error {
				inner <- g2.Acquire(16)
				<-hold
				return nil
			})
		}()
		got := <-inner
		if got > 4 {
			return fmt.Errorf("second active job acquired %d, want <= fair share 4", got)
		}
		close(hold)
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCancelWhileQueued: a queued job whose context dies leaves the
// queue and reports the context error without ever running.
func TestCancelWhileQueued(t *testing.T) {
	s := New(Config{MaxActive: 1})
	release, running := block(t, s, "warm", Background)
	<-running

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	done := make(chan error, 1)
	go func() {
		done <- s.Run(ctx, "victim", Background, func(context.Context, *Grant) error {
			ran = true
			return nil
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("cancelled job still ran")
	}
	release()
	if snap := s.Snapshot(); snap.QueueDepth != 0 {
		t.Fatalf("queue not drained after cancel: %+v", snap)
	}
}

// TestSnapshotPerTenantHistograms: completed jobs land in per-tenant
// wait/run histograms, tenants sorted for deterministic output.
func TestSnapshotPerTenantHistograms(t *testing.T) {
	s := New(Config{Workers: 2, MaxActive: 2})
	for _, tenant := range []string{"zeta", "alpha", "zeta"} {
		if err := s.Run(context.Background(), tenant, Background, func(_ context.Context, g *Grant) error {
			n := g.Acquire(1)
			time.Sleep(time.Millisecond)
			g.Release(n)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if len(snap.Tenants) != 2 || snap.Tenants[0].Tenant != "alpha" || snap.Tenants[1].Tenant != "zeta" {
		t.Fatalf("tenants not sorted: %+v", snap.Tenants)
	}
	if snap.Tenants[1].Completed != 2 {
		t.Fatalf("zeta completed %d, want 2", snap.Tenants[1].Completed)
	}
	if snap.Tenants[1].Run.Count != 2 || snap.Tenants[1].Run.MeanMs <= 0 {
		t.Fatalf("zeta run histogram not populated: %+v", snap.Tenants[1].Run)
	}
	if snap.Tenants[0].Wait.Count != 1 {
		t.Fatalf("alpha wait histogram not populated: %+v", snap.Tenants[0].Wait)
	}
}

// TestStaggerJitterDeterministic pins the auto-refresh spreading
// helpers: stable across calls, inside their ranges, and actually
// spreading distinct ids.
func TestStaggerJitterDeterministic(t *testing.T) {
	period := 10 * time.Minute
	seen := map[time.Duration]bool{}
	for _, id := range []string{"r01", "r02", "r03", "r04", "r05", "r06", "r07", "r08"} {
		p := Stagger(id, period)
		if p != Stagger(id, period) {
			t.Fatalf("Stagger(%s) not stable", id)
		}
		if p < 0 || p >= period {
			t.Fatalf("Stagger(%s) = %v outside [0, %v)", id, p, period)
		}
		seen[p] = true
		j0, j1 := Jitter(id, 0, time.Minute), Jitter(id, 1, time.Minute)
		if j0 < 0 || j0 >= time.Minute || j1 < 0 || j1 >= time.Minute {
			t.Fatalf("Jitter(%s) out of range: %v %v", id, j0, j1)
		}
	}
	if len(seen) < 6 {
		t.Fatalf("8 ids landed on only %d distinct phases", len(seen))
	}
	if Stagger("x", 0) != 0 || Jitter("x", 0, 0) != 0 {
		t.Fatal("zero period/width must yield zero offset")
	}
}

// TestSlowTenantCannotStarveSmall models the byzantine-slow-mirror
// scenario at the scheduler layer: one tenant arrives with a 10x
// backlog of jobs that each take 10x as long (a slow upstream stalls
// the job body, exactly what a byzantine mirror does to a quorum
// fetch), then a small tenant submits a couple of quick jobs behind
// it, with one admission slot forcing them to share. FIFO would park
// the small tenant behind the entire slow backlog (~10 slow jobs); SFQ
// tags must admit it after roughly one. The wait histograms the
// assertion reads are the same ones /stats and the BENCH files report.
func TestSlowTenantCannotStarveSmall(t *testing.T) {
	const (
		slowJob   = 30 * time.Millisecond
		slowJobs  = 10
		smallJobs = 2
	)
	s := New(Config{MaxActive: 1})
	release, running := block(t, s, "warm", Background)
	<-running

	var wg sync.WaitGroup
	submit := func(tenant string, d time.Duration) {
		before := s.Snapshot().QueueDepth
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Run(context.Background(), tenant, Background, func(context.Context, *Grant) error {
				time.Sleep(d)
				return nil
			})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for s.Snapshot().QueueDepth <= before {
			if time.Now().After(deadline) {
				t.Fatalf("job for %s never queued", tenant)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := 0; i < slowJobs; i++ {
		submit("slowbig", slowJob)
	}
	for i := 0; i < smallJobs; i++ {
		submit("small", slowJob/10)
	}
	release()
	wg.Wait()

	snap := s.Snapshot()
	var small, slow TenantSnapshot
	for _, ts := range snap.Tenants {
		switch ts.Tenant {
		case "small":
			small = ts
		case "slowbig":
			slow = ts
		}
	}
	if small.Completed != smallJobs || slow.Completed != slowJobs {
		t.Fatalf("completed small=%d slow=%d, want %d and %d", small.Completed, slow.Completed, smallJobs, slowJobs)
	}
	// Starvation would serialize the small tenant behind the whole
	// slow backlog: wait >= slowJobs*slowJob (300ms). Fair tags admit
	// its jobs after about one slow job each; 4 slow jobs of slack
	// stays far under the starvation floor.
	maxWaitMs := small.Wait.MaxMs
	if limit := float64(4*slowJob) / float64(time.Millisecond); maxWaitMs > limit {
		t.Fatalf("small tenant max wait %.1fms exceeds %.1fms: starved behind the slow tenant", maxWaitMs, limit)
	}
}
