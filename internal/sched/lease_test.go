package sched

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// TestAcquireWhileHoldingCapsAndNeverBlocks: a grant that already
// holds slots leases at most its fair share minus what it holds, and
// gets 0 instead of blocking when the pool is full or its share is
// used up, so a dispatcher that leases while its work is in flight
// cannot wait on the pool while holding slots.
func TestAcquireWhileHoldingCapsAndNeverBlocks(t *testing.T) {
	s := New(Config{Workers: 6})
	err := s.Run(context.Background(), "a", Interactive, func(_ context.Context, a *Grant) error {
		if n := a.Acquire(8); n != 6 {
			t.Fatalf("lone job leased %d, want the whole pool 6", n)
		}
		// A second job, which runs each step it is sent on its own
		// grant and reports what the step leased.
		steps, leased := make(chan int), make(chan int)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Run(context.Background(), "b", Interactive, func(_ context.Context, b *Grant) error {
				leased <- 0 // admitted
				for want := range steps {
					leased <- b.Acquire(want)
				}
				return nil
			})
		}()
		<-leased
		bAcquire := func(want int) int { steps <- want; return <-leased }

		// Two jobs share 6 slots: a fair share is 3.
		a.Release(1)
		if n := a.Acquire(1); n != 0 {
			t.Errorf("a holding 5 of a share of 3 leased %d more, want 0", n)
		}
		if n := bAcquire(4); n != 1 {
			t.Errorf("b leased %d with 1 slot free, want 1", n)
		}
		// The pool is full: a grant that holds slots does not wait.
		if n := a.Acquire(1); n != 0 {
			t.Errorf("a leased %d from a full pool, want 0", n)
		}
		if n := bAcquire(1); n != 0 {
			t.Errorf("b leased %d from a full pool, want 0", n)
		}
		a.Release(3)
		if n := bAcquire(4); n != 2 {
			t.Errorf("b holding 1 of a share of 3 leased %d, want 2", n)
		}
		if n := a.Acquire(4); n != 1 {
			t.Errorf("a holding 2 of a share of 3 leased %d, want 1", n)
		}
		close(steps)
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.PeakSlots > 6 || snap.SlotsInUse != 0 {
		t.Errorf("peak slots %d, %d still leased", snap.PeakSlots, snap.SlotsInUse)
	}
}

// TestRollingLeaseHoldsFairShare runs three jobs that each lease
// slots as the work they started finishes, as the refresh pipeline
// does, over one pool. At every lease the grant holds no more than its
// fair share, the pool no more than Workers slots, and a grant that
// held nothing gets at least one.
func TestRollingLeaseHoldsFairShare(t *testing.T) {
	const workers, jobs, items, perJob = 6, 3, 40, 4
	s := New(Config{Workers: workers})
	// All jobs are admitted before any leases, and none ends before
	// all are done leasing, so the fair share is workers/jobs
	// throughout.
	var admitted, leasing sync.WaitGroup
	admitted.Add(jobs)
	leasing.Add(jobs)
	check := func(g *Grant, k, heldBefore int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		share := max(1, s.workers/s.active)
		if k > 0 && g.held > share {
			t.Errorf("grant holds %d after a lease, fair share %d", g.held, share)
		}
		if s.slotsInUse > s.workers {
			t.Errorf("%d slots leased from a pool of %d", s.slotsInUse, s.workers)
		}
		if heldBefore == 0 && k == 0 {
			t.Error("a grant holding nothing leased nothing")
		}
	}
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Run(context.Background(), string(rune('a'+j)), Background, func(_ context.Context, g *Grant) error {
				admitted.Done()
				admitted.Wait()
				defer leasing.Wait()
				defer leasing.Done()
				finished := make(chan struct{}, perJob)
				started, running := 0, 0
				for started < items || running > 0 {
					if started < items && running < perJob {
						k := g.Acquire(min(perJob-running, items-started))
						check(g, k, running)
						if running+k == 0 {
							return nil
						}
						for ; k > 0; k-- {
							go func() {
								runtime.Gosched()
								finished <- struct{}{}
							}()
							started++
							running++
						}
					}
					<-finished
					running--
					g.Release(1)
				}
				return nil
			})
		}()
	}
	wg.Wait()
	if snap := s.Snapshot(); snap.PeakSlots > workers || snap.SlotsInUse != 0 {
		t.Errorf("peak slots %d of %d, %d still leased", snap.PeakSlots, workers, snap.SlotsInUse)
	}
}
