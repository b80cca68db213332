package tsr

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsr/internal/apk"
	"tsr/internal/enclave"
	"tsr/internal/netsim"
	"tsr/internal/quorum"
	"tsr/internal/sched"
)

// runBatches is the reference worker loop runRolling replaced: it
// leases a batch of slots, runs one goroutine per item of the batch,
// waits for all of them, accounts the batch with done, releases the
// slots and leases again. Every batch waits for its slowest item.
// Uncontended, its batches are runRolling's windows.
func runBatches(g *sched.Grant, workers, n int, work func(i int), done func(lo, hi int)) {
	for lo := 0; lo < n; {
		hi := lo + g.Acquire(min(workers, n-lo))
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(i)
			}()
		}
		wg.Wait()
		if done != nil {
			done(lo, hi)
		}
		g.Release(hi - lo)
		lo = hi
	}
}

// granted runs fn as one job of a fresh scheduler with a pool of
// poolSize slots (0: unbounded).
func granted(t *testing.T, poolSize int, fn func(g *sched.Grant)) {
	t.Helper()
	s := sched.New(sched.Config{Workers: poolSize})
	err := s.Run(context.Background(), "t", sched.Background, func(_ context.Context, g *sched.Grant) error {
		fn(g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRollingLeasePassesStraggler: item 0 finishes only after every
// other item has. A batch barrier can never finish it, since items
// past the first batch wait for item 0's batch to end; the rolling
// lease runs them all on the slots item 0 does not hold. The windows
// are charged in order, and only once item 0, which opens the first,
// is done.
func TestRollingLeasePassesStraggler(t *testing.T) {
	for _, tc := range []struct{ workers, n, pool int }{
		{2, 6, 0}, {2, 7, 2}, {3, 10, 0}, {4, 9, 4},
	} {
		t.Run(fmt.Sprintf("workers=%d/n=%d/pool=%d", tc.workers, tc.n, tc.pool), func(t *testing.T) {
			gate := make(chan struct{})
			var others atomic.Int64
			others.Store(int64(tc.n - 1))
			worked := make([]atomic.Int64, tc.n)
			var item0Done atomic.Bool
			var windows [][2]int
			granted(t, tc.pool, func(g *sched.Grant) {
				runRolling(g, tc.workers, tc.n, func(i int) {
					worked[i].Add(1)
					if i == 0 {
						<-gate
						item0Done.Store(true)
						return
					}
					if others.Add(-1) == 0 {
						close(gate)
					}
				}, func(lo, hi int) {
					if !item0Done.Load() {
						t.Errorf("window [%d, %d) charged before item 0 finished", lo, hi)
					}
					windows = append(windows, [2]int{lo, hi})
				})
			})
			for i := range worked {
				if got := worked[i].Load(); got != 1 {
					t.Errorf("item %d worked %d times", i, got)
				}
			}
			if want := batchWindows(tc.workers, tc.n); !slices.Equal(windows, want) {
				t.Errorf("windows = %v, want %v", windows, want)
			}
		})
	}
}

// batchWindows lists the windows of workers consecutive items of
// [0, n), in order.
func batchWindows(workers, n int) [][2]int {
	var w [][2]int
	for lo := 0; lo < n; lo += workers {
		w = append(w, [2]int{lo, min(lo+workers, n)})
	}
	return w
}

// chargeRepo is the part of a Repo the modeled charges read: a link
// with a fixed jitter seed and an EPC small enough that windows page.
func chargeRepo() *Repo {
	return &Repo{
		svc: &Service{cfg: Config{
			Link: netsim.DefaultLinkModel(netsim.NewRNG(7)),
			EPC:  enclave.CostModel{EPCBytes: 1 << 20, BaseFactor: 1.18, PagingFactor: 1.96},
		}},
		reader: &quorum.Reader{},
	}
}

// TestRollingLeaseChargesBatchOracleWindows: over an uncontended pool,
// the sanitize stage's modeled charges come out the same on the
// rolling lease as on the batch loop, for outcomes whose downloads,
// working sets and native times differ by item and whose items finish
// in any order.
func TestRollingLeaseChargesBatchOracleWindows(t *testing.T) {
	outcome := func(i int) sanOut {
		if i%5 == 4 {
			return sanOut{cacheHit: true}
		}
		return sanOut{
			dlBytes:    int64(40_000 * (i%4 + 1)),
			native:     time.Duration(i+1) * time.Millisecond,
			workingSet: int64(150_000 * (i%3 + 1)),
		}
	}
	for _, tc := range []struct{ workers, n int }{{1, 5}, {3, 11}, {4, 16}, {8, 13}} {
		t.Run(fmt.Sprintf("workers=%d/n=%d", tc.workers, tc.n), func(t *testing.T) {
			charge := func(loop func(*sched.Grant, int, int, func(int), func(int, int))) *RefreshStats {
				r, stats := chargeRepo(), &RefreshStats{}
				outs := make([]sanOut, tc.n)
				granted(t, 0, func(g *sched.Grant) {
					loop(g, tc.workers, tc.n, func(i int) { outs[i] = outcome(i) },
						func(lo, hi int) { r.chargeSanitizeWindow(stats, outs[lo:hi]) })
				})
				return stats
			}
			want, got := charge(runBatches), charge(runRolling)
			if want.SGXOverhead == 0 || want.DownloadTime == 0 {
				t.Fatalf("oracle charged nothing: %+v", want)
			}
			if got.Downloaded != want.Downloaded || got.DownloadTime != want.DownloadTime || got.SGXOverhead != want.SGXOverhead {
				t.Errorf("rolling lease charged downloaded=%d %v, SGX %v; batch oracle downloaded=%d %v, SGX %v",
					got.Downloaded, got.DownloadTime, got.SGXOverhead, want.Downloaded, want.DownloadTime, want.SGXOverhead)
			}
		})
	}
}

// TestRollingLeaseRefreshMatchesBatchOracle: a cold multi-package
// refresh over an uncontended pool downloads as many packages, in as
// much modeled time, on the rolling lease as on the batch loop, and
// publishes the same index. The SGX charge depends on measured CPU
// time, so the test above compares it over fixed outcomes instead.
func TestRollingLeaseRefreshMatchesBatchOracle(t *testing.T) {
	refresh := func(loop func(*sched.Grant, int, int, func(int), func(int, int))) (*RefreshStats, []string) {
		saved := lease
		lease = loop
		defer func() { lease = saved }()
		w := newWorld(t, 3)
		var pkgs []*apk.Package
		for i := 0; i < 11; i++ {
			p := pkgWithScript(fmt.Sprintf("pkg%02d", i), "1.0-r0", "")
			p.Files[0].Content = make([]byte, (i%4+1)*64<<10)
			pkgs = append(pkgs, p)
		}
		w.publish(t, pkgs...)
		r := w.deploy(t)
		r.SetWorkers(4)
		stats, err := r.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		return stats, r.local.Names()
	}
	want, wantNames := refresh(runBatches)
	got, gotNames := refresh(runRolling)
	if want.Downloaded != 11 || want.DownloadTime == 0 {
		t.Fatalf("oracle refresh = %+v", want)
	}
	if got.Downloaded != want.Downloaded || got.DownloadTime != want.DownloadTime {
		t.Errorf("rolling lease downloaded %d in %v, batch oracle %d in %v", got.Downloaded, got.DownloadTime, want.Downloaded, want.DownloadTime)
	}
	if got.Sanitized != want.Sanitized || !slices.Equal(gotNames, wantNames) {
		t.Errorf("rolling lease sanitized %d into %v, batch oracle %d into %v", got.Sanitized, gotNames, want.Sanitized, wantNames)
	}
}
