package edge

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/osimage"
	"tsr/internal/pkgmgr"
	"tsr/internal/policy"
	"tsr/internal/quorum"
	"tsr/internal/repo"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// feed serves one chosen signed index, and the packages of the
// snapshot it belongs to, on every read surface a consumer syncs from:
// a mirror for the origin's quorum, a Source for the package manager,
// an Origin for a replica and a Fetcher for a failover client.
type feed struct {
	mu   sync.Mutex
	snap *repo.Snapshot
}

func (f *feed) serve(snap *repo.Snapshot) {
	f.mu.Lock()
	f.snap = snap
	f.mu.Unlock()
}

func (f *feed) current() *repo.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap
}

func (f *feed) FetchIndex() (*index.Signed, error) { return f.current().Signed.Clone(), nil }

func (f *feed) FetchIndexTaggedCtx(context.Context) (*index.Signed, string, error) {
	s := f.current().Signed
	return s.Clone(), s.ETag(), nil
}

func (f *feed) FetchIndexDeltaCtx(_ context.Context, since string) (*index.Delta, error) {
	if since == f.current().Signed.ETag() {
		return nil, index.ErrDeltaUnchanged
	}
	return nil, fmt.Errorf("%w: feed keeps no history", index.ErrNoDelta)
}

func (f *feed) FetchPackage(name string) ([]byte, error) {
	raw, ok := f.current().Packages[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", repo.ErrNoPackage, name)
	}
	return raw, nil
}

func (f *feed) FetchPackageCtx(_ context.Context, name string) ([]byte, error) {
	return f.FetchPackage(name)
}

func (f *feed) FetchChunkManifestCtx(context.Context, string) (*store.ChunkManifest, error) {
	return nil, errNoChunkManifests
}

// feedTenant deploys the edge world's policy on a fresh origin whose
// every policy mirror is f, so the tenant's upstream check reads f.
func feedTenant(t *testing.T, w *edgeWorld, f *feed) *tsr.Repo {
	t.Helper()
	svc, err := w.Restart(tsr.Config{
		Store: store.NewMem(),
		Resolve: func(policy.Mirror) (quorum.Source, tsr.PackageFetcher, error) {
			return f, f, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.deploy(t, svc)
}

// TestOneAcceptanceRule feeds the same signed sequence — an index, a
// newer one, a replay of the first, a fork of the second, the second
// again — to every consumer that keeps a freshness floor, and checks
// that all of them reach the same verdicts: the ones index.AcceptIndex
// gives, because each of them calls it (the replica, a ring-less
// cache, calls its floor step).
func TestOneAcceptanceRule(t *testing.T) {
	w := newEdgeWorld(t)
	first := w.Upstream.Snapshot()
	w.publish(t, testPkg("app", "1.1-r0"))
	second := w.Upstream.Snapshot()
	forked, err := index.Decode(second.Signed.Raw)
	if err != nil {
		t.Fatal(err)
	}
	forked.Origin += "-fork"
	forkSigned, err := index.Sign(forked, w.Distro)
	if err != nil {
		t.Fatal(err)
	}
	fork := &repo.Snapshot{Signed: forkSigned, Packages: second.Packages}

	steps := []struct {
		name string
		snap *repo.Snapshot
		want error
	}{
		{"first index", first, nil},
		{"forward", second, nil},
		{"replay", first, index.ErrStale},
		{"fork", fork, index.ErrFork},
		{"same index again", second, nil},
	}
	ring := keys.NewRing(w.Distro.Public())
	f := &feed{}
	consumers := []struct {
		name   string
		accept func(t *testing.T) func() error
	}{
		{"pkgmgr.Manager", func(t *testing.T) func() error {
			img, err := osimage.New(keys.Shared.MustGet("edge-test-os-ak"), nil)
			if err != nil {
				t.Fatal(err)
			}
			return pkgmgr.New(img, f, ring, ring).Refresh
		}},
		{"edge.FailoverClient", func(t *testing.T) func() error {
			c := &FailoverClient{TrustRing: ring, Endpoints: []Endpoint{{Name: "feed", Fetcher: f}}}
			return func() error { _, err := c.FetchIndex(); return err }
		}},
		{"edge.Replica", func(t *testing.T) func() error {
			rep := &Replica{RepoID: "feed", Origin: f}
			return func() error { return rep.SyncCtx(context.Background()) }
		}},
		{"tsr.Repo upstream", func(t *testing.T) func() error {
			r := feedTenant(t, w, f)
			return func() error { _, err := r.Refresh(); return err }
		}},
	}
	for _, c := range consumers {
		t.Run(c.name, func(t *testing.T) {
			f.serve(first)
			accept := c.accept(t)
			for _, st := range steps {
				f.serve(st.snap)
				err := accept()
				if st.want == nil && err != nil || st.want != nil && !errors.Is(err, st.want) {
					t.Fatalf("%s: err = %v, want %v", st.name, err, st.want)
				}
			}
		})
	}
}

// TestReplicaFollowsOriginColdStart: an origin whose data dir is rolled
// back restarts cold under the same key and TPM, and its next index is
// ahead of every sequence its previous life signed — so a replica that
// synced before the crash follows it with its ordinary sync, without
// operator action.
func TestReplicaFollowsOriginColdStart(t *testing.T) {
	w := newEdgeWorld(t)
	st := store.NewMem()
	svc1, err := w.Restart(tsr.Config{Store: st, AutoPersist: true})
	if err != nil {
		t.Fatal(err)
	}
	r1 := w.deploy(t, svc1)
	if _, err := r1.Refresh(); err != nil {
		t.Fatal(err)
	}
	rolledBack := st.Snapshot()
	for _, v := range []string{"1.1-r0", "1.2-r0", "1.3-r0"} {
		w.publish(t, testPkg("app", v))
		if _, err := r1.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	rep := &Replica{RepoID: r1.ID, Origin: r1, TrustRing: keys.NewRing(r1.PublicKey())}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := rep.Stats().Sequence

	st2 := store.NewMem()
	st2.Restore(rolledBack)
	svc2, err := w.Restart(tsr.Config{Store: st2, AutoPersist: true})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := svc2.RestoreAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || !errors.Is(restored[0].Err, tsr.ErrRollback) {
		t.Fatalf("RestoreAll = %+v, want one repository refused with ErrRollback", restored)
	}
	r2, err := svc2.Repo(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Refresh(); err != nil {
		t.Fatal(err)
	}
	rep.Origin = r2
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatalf("replica refuses the cold-started origin: %v", err)
	}
	if got := rep.Stats().Sequence; got <= before {
		t.Fatalf("replica serves sequence %d after the origin's cold start, want > %d", got, before)
	}
}

// TestFailoverClientConcurrentAcceptNeverMovesBack: accept verifies
// outside the client's lock and commits under it. Fetchers that each
// walk the same run of generations keep the floor rising while others
// verify, so an accept that verified against an older floor must not
// commit over a newer one: no accept may return a floor below one an
// earlier, completed accept returned, and the client ends on the
// newest index with its cached index at the floor's sequence.
func TestFailoverClientConcurrentAcceptNeverMovesBack(t *testing.T) {
	w := newEdgeWorld(t)
	var gens []*index.Signed
	for v := 0; v < 24; v++ {
		if v > 0 {
			w.publish(t, testPkg("app", fmt.Sprintf("1.%d-r0", v)))
		}
		gens = append(gens, w.Upstream.Snapshot().Signed)
	}
	newest, err := index.Decode(gens[len(gens)-1].Raw)
	if err != nil {
		t.Fatal(err)
	}
	c := &FailoverClient{TrustRing: keys.NewRing(w.Distro.Public())}
	var (
		wg      sync.WaitGroup
		highest atomic.Uint64 // the highest floor any completed accept returned
	)
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range gens {
				lo := highest.Load()
				floor, err := c.accept(s.Clone())
				if err != nil && !errors.Is(err, index.ErrStale) {
					errs <- err
					return
				}
				if floor.Sequence < lo {
					errs <- fmt.Errorf("floor moved back: %d after %d", floor.Sequence, lo)
					return
				}
				for cur := highest.Load(); floor.Sequence > cur && !highest.CompareAndSwap(cur, floor.Sequence); cur = highest.Load() {
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.floor.Sequence != newest.Sequence || c.cachedIx.Sequence != newest.Sequence {
		t.Fatalf("floor %d, cached index %d, want both at the newest sequence %d",
			c.floor.Sequence, c.cachedIx.Sequence, newest.Sequence)
	}
}
