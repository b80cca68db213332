package daemon

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"log/slog"
	"math/rand"
	"os"
	"sync"
	"time"

	"tsr/internal/edge"
	"tsr/internal/sched"
	"tsr/internal/trace"
	"tsr/internal/tsr"
)

// AutoRefresh keeps every repository deployed on svc fresh until the
// context is canceled. Each repository gets its own deadline series
//
//	start + Stagger(id, every) + round*every + Jitter(id, round, every/10)
//
// so a fleet of tenants spreads across the interval instead of firing
// as a thundering herd, and the spread is deterministic across
// restarts. Due repositories refresh concurrently on the Background
// band of the service's global scheduler — the scheduler, not this
// loop, bounds how many actually run — with a per-repo in-flight guard
// so a slow cycle is never stacked on itself. Repositories deployed at
// runtime are picked up on the next tick. The snapshot read path keeps
// serving the previous published state during each cycle, so the
// daemon stays fully responsive to package managers throughout.
func AutoRefresh(ctx context.Context, svc *tsr.Service, every time.Duration, tracer *trace.Tracer, log *slog.Logger) {
	type repoState struct {
		round uint64
		next  time.Time
		busy  bool
	}
	var mu sync.Mutex
	states := map[string]*repoState{}
	start := time.Now()
	deadline := func(id string, round uint64) time.Time {
		d := sched.Stagger(id, every) + time.Duration(round)*every
		if round > 0 {
			d += sched.Jitter(id, round, every/10)
		}
		return start.Add(d)
	}
	// Fine-grained ticker: deadlines land anywhere in the interval, so
	// the loop polls well below `every` (bounded to [50ms, 1s]).
	tick := min(max(every/20, 50*time.Millisecond), time.Second)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	// Each cycle runs under the daemon's tracer, so auto-refreshes show
	// up in /debug/traces with per-stage child spans exactly like
	// operator-triggered POST /refresh cycles do.
	tctx := trace.NewContext(ctx, tracer)
	for {
		var now time.Time
		select {
		case <-ctx.Done():
			return
		case now = <-ticker.C:
		}
		ids := svc.RepoIDs()
		live := make(map[string]bool, len(ids))
		for _, id := range ids {
			live[id] = true
		}
		mu.Lock()
		for id := range states {
			if !live[id] {
				delete(states, id) // undeployed since last tick
			}
		}
		due := make([]string, 0, len(ids))
		for _, id := range ids {
			st := states[id]
			if st == nil {
				st = &repoState{next: deadline(id, 0)}
				states[id] = st
			}
			if !st.busy && !now.Before(st.next) {
				st.busy = true
				due = append(due, id)
			}
		}
		mu.Unlock()
		for _, id := range due {
			go func(id string) {
				defer func() {
					mu.Lock()
					if st := states[id]; st != nil {
						st.busy = false
						// Skip rounds a long cycle (or a stalled box) ran
						// past, so recovery is one refresh, not a burst.
						for {
							st.round++
							if next := deadline(id, st.round); next.After(time.Now()) {
								st.next = next
								break
							}
						}
					}
					mu.Unlock()
				}()
				repo, err := svc.Repo(id)
				if err != nil {
					return // undeployed between listing and lookup
				}
				if _, err := repo.RefreshBackgroundCtx(tctx); err != nil {
					log.Error("auto-refresh failed", "repo", id, "err", err)
				}
			}(id)
		}
	}
}

// SyncLoop keeps the replica converging on its origin until the
// context is canceled. Warm iterations are delta syncs (or 304-style
// no-ops); failures are logged and retried on the next tick. Each
// interval carries ±10% jitter: a fleet of edges started together (a
// rolling deploy, a recovered rack) would otherwise delta-sync in
// lockstep and hit the origin as one synchronized thundering herd
// forever.
func SyncLoop(ctx context.Context, rep *edge.Replica, every time.Duration, log *slog.Logger) {
	rng := rand.New(rand.NewSource(cryptoSeed()))
	timer := time.NewTimer(jitter(rng, every))
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		if err := rep.SyncCtx(ctx); err != nil {
			log.Error("sync failed", "err", err)
		}
		timer.Reset(jitter(rng, every))
	}
}

// cryptoSeed derives a jitter-RNG seed from crypto/rand. A wall-clock
// seed would give every replica in a simultaneously deployed fleet a
// near-identical seed — and detrand flags it as the classic
// unreproducible-failure pattern; entropy from the kernel keeps the
// phases independent instead.
func cryptoSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// No kernel entropy: fall back to something per-process. The
		// jitter degrades (possible fleet alignment), nothing breaks.
		return int64(os.Getpid())
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// jitter spreads an interval uniformly over [0.9d, 1.1d].
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	return d + time.Duration((rng.Float64()*0.2-0.1)*float64(d))
}
