package edge

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
)

// TestBehaviorTransitionsUnderTraffic drives every behavior pair
// (Honest/Freeze/Corrupt/Offline squared) as a mid-flight transition:
// a victim replica flips from one behavior to the other while client
// goroutines fetch packages through a FailoverClient and a syncer
// goroutine hammers the victim's Sync. The failover client must keep
// converging on the origin's current generation via the honest backup,
// and — the paper's core claim — zero unverified bytes may ever reach
// a client: every successful fetch is re-verified here against the
// signed index entry it was requested under. Run with -race in CI;
// the transitions are exactly the SetBehavior/FetchPackage/Sync
// interleavings the replica's locking must survive.
func TestBehaviorTransitionsUnderTraffic(t *testing.T) {
	behaviors := []Behavior{Honest, Freeze, Corrupt, Offline}
	for _, from := range behaviors {
		for _, to := range behaviors {
			t.Run(fmt.Sprintf("%v_to_%v", from, to), func(t *testing.T) {
				t.Parallel()
				testTransition(t, from, to)
			})
		}
	}
}

func testTransition(t *testing.T, from, to Behavior) {
	w := newEdgeWorld(t)
	ring := keys.NewRing(w.tenant.PublicKey())
	victim := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.Europe, TrustRing: ring}
	backup := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.NorthAmerica, TrustRing: ring}
	for _, rep := range []*Replica{victim, backup} {
		if err := rep.SyncCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	endpoints := []Endpoint{
		// The victim ranks first (same continent as the clients), so
		// traffic actually exercises it before failing over.
		{Name: "victim", Continent: netsim.Europe, Fetcher: victim},
		{Name: "backup", Continent: netsim.NorthAmerica, Fetcher: backup},
	}
	victim.SetBehavior(from)

	const clientN, iterations = 4, 20
	var unverified atomic.Int64
	var served atomic.Int64
	var wg, syncWG sync.WaitGroup
	stop := make(chan struct{})

	// Syncer: the victim transitions mid-Sync as well as mid-fetch.
	syncWG.Add(1)
	go func() {
		defer syncWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = victim.SyncCtx(context.Background())
				_ = backup.SyncCtx(context.Background())
			}
		}
	}()

	for c := 0; c < clientN; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fc := &FailoverClient{
				Local:     netsim.Europe,
				Link:      netsim.DefaultLinkModel(nil),
				Clock:     netsim.NewVirtualClock(time.Time{}),
				TrustRing: ring,
				Endpoints: endpoints,
			}
			var lastSeq uint64
			for i := 0; i < iterations; i++ {
				signed, err := fc.FetchIndex()
				if err != nil {
					continue // availability, not a violation
				}
				ix, err := index.Decode(signed.Raw)
				if err != nil {
					t.Errorf("client %d accepted undecodable index: %v", c, err)
					return
				}
				if ix.Sequence < lastSeq {
					t.Errorf("client %d index sequence regressed %d -> %d", c, lastSeq, ix.Sequence)
					return
				}
				lastSeq = ix.Sequence
				for _, e := range ix.Entries {
					body, err := fc.FetchPackage(e.Name)
					if err != nil {
						continue
					}
					served.Add(1)
					if int64(len(body)) != e.Size || sha256.Sum256(body) != e.Hash {
						unverified.Add(int64(len(body)))
					}
				}
			}
		}(c)
	}

	// Mid-traffic: a new origin generation lands, then the victim flips.
	w.publish(t, testPkg(fmt.Sprintf("mid-%v-%v", from, to), "1.0-r0"))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	victim.SetBehavior(to)
	wg.Wait()
	close(stop)
	syncWG.Wait()

	if n := unverified.Load(); n != 0 {
		t.Fatalf("%d unverified bytes reached clients across %d served fetches", n, served.Load())
	}

	// Convergence once churn quiesces (the bounded-staleness invariant):
	// the victim heals and resyncs, and a read through the failover
	// client must land on the origin's current generation. Without the
	// heal a frozen victim could legally serve its stale-but-validly-
	// signed generation to a floor-less fresh client — staleness is only
	// bounded after replicas resync, which is exactly how the fleet-soak
	// invariant is defined.
	victim.SetBehavior(Honest)
	for _, rep := range []*Replica{victim, backup} {
		if err := rep.SyncCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	cur, _, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	curIx, err := index.Decode(cur.Raw)
	if err != nil {
		t.Fatal(err)
	}
	fc := &FailoverClient{
		Local:     netsim.Europe,
		Link:      netsim.DefaultLinkModel(nil),
		Clock:     netsim.NewVirtualClock(time.Time{}),
		TrustRing: ring,
		Endpoints: endpoints,
	}
	signed, err := fc.FetchIndex()
	if err != nil {
		t.Fatalf("post-transition read failed: %v", err)
	}
	gotIx, err := index.Decode(signed.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if gotIx.Sequence != curIx.Sequence {
		t.Fatalf("client converged on sequence %d, origin is at %d", gotIx.Sequence, curIx.Sequence)
	}
	for _, e := range gotIx.Entries {
		body, err := fc.FetchPackage(e.Name)
		if err != nil {
			t.Fatalf("post-transition fetch %s: %v", e.Name, err)
		}
		if int64(len(body)) != e.Size || sha256.Sum256(body) != e.Hash {
			t.Fatalf("post-transition fetch %s returned unverified bytes", e.Name)
		}
	}
}
