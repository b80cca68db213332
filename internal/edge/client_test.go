package edge

import (
	"context"
	"errors"
	"testing"
	"time"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/osimage"
	"tsr/internal/pkgmgr"
)

// twoEdges builds a synced pair of replicas: one near (Europe), one far
// (Asia).
func twoEdges(t *testing.T, w *edgeWorld) (near, far *Replica) {
	t.Helper()
	near = &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.Europe}
	far = &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.Asia}
	for _, rep := range []*Replica{near, far} {
		if err := rep.SyncCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return near, far
}

func newClient(w *edgeWorld, eps ...Endpoint) *FailoverClient {
	return &FailoverClient{
		Local:     netsim.Europe,
		Link:      netsim.DefaultLinkModel(nil), // jitter-free: deterministic ranking
		Clock:     netsim.NewVirtualClock(time.Time{}),
		TrustRing: w.trust(),
		Endpoints: eps,
	}
}

func TestFailoverPrefersNearestEndpoint(t *testing.T) {
	w := newEdgeWorld(t)
	near, far := twoEdges(t, w)
	c := newClient(w,
		Endpoint{Name: "edge-asia", Continent: netsim.Asia, Fetcher: far},
		Endpoint{Name: "edge-eu", Continent: netsim.Europe, Fetcher: near},
		Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: w.tenant},
	)
	if _, err := c.FetchIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchPackage("app"); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	// Both Europe endpoints tie on RTT; the stable sort keeps
	// configuration order, so the European edge (listed before the
	// origin) absorbs both requests and Asia is never contacted.
	if s.PerEndpoint["edge-eu"] != 2 || s.PerEndpoint["edge-asia"] != 0 || s.PerEndpoint["origin"] != 0 {
		t.Fatalf("per-endpoint = %v", s.PerEndpoint)
	}
	if s.Failovers != 0 {
		t.Fatalf("failovers = %d", s.Failovers)
	}
}

// TestFailoverRejectsStaleReplica: a frozen replica keeps serving a
// validly-signed but outdated index. Once the client has accepted a
// fresher sequence, the stale one is rejected by the freshness floor
// and the client fails over — the signature alone is not enough.
func TestFailoverRejectsStaleReplica(t *testing.T) {
	w := newEdgeWorld(t)
	near, far := twoEdges(t, w)

	// The far replica freezes at the current generation; the origin
	// moves on and the near replica follows.
	far.SetBehavior(Freeze)
	w.update(t, "app", "1.1-r0")
	if err := near.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	c := newClient(w,
		Endpoint{Name: "edge-eu", Continent: netsim.Europe, Fetcher: near},
		Endpoint{Name: "edge-asia-frozen", Continent: netsim.Asia, Fetcher: far},
	)
	// First read lands on the near honest edge and raises the floor.
	if _, err := c.FetchIndex(); err != nil {
		t.Fatal(err)
	}

	// Near edge goes down: the only reachable endpoint is the frozen
	// one. Its index verifies but is stale — the client must reject it
	// rather than silently accept the replay.
	near.SetBehavior(Offline)
	_, err := c.FetchIndex()
	if !errors.Is(err, ErrAllEndpointsFailed) || !errors.Is(err, index.ErrStale) {
		t.Fatalf("err = %v, want ErrAllEndpointsFailed wrapping index.ErrStale", err)
	}
	if s := c.Stats(); s.RejectedStale != 1 {
		t.Fatalf("stats = %+v, want RejectedStale=1", s)
	}

	// The near edge recovers: reads heal.
	near.SetBehavior(Honest)
	if _, err := c.FetchIndex(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverCorruptEdge: a tampering replica costs one failover and
// zero unverified bytes.
func TestFailoverCorruptEdge(t *testing.T) {
	w := newEdgeWorld(t)
	near, _ := twoEdges(t, w)
	near.SetBehavior(Corrupt)
	c := newClient(w,
		Endpoint{Name: "edge-eu-corrupt", Continent: netsim.Europe, Fetcher: near},
		Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: w.tenant},
	)
	raw, err := c.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := w.tenant.FetchPackage("app")
	if string(raw) != string(want) {
		t.Fatal("client returned bytes that differ from the origin's")
	}
	s := c.Stats()
	if s.RejectedBytes != 1 || s.Failovers != 1 || s.PerEndpoint["origin"] != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The corrupt edge is demoted: the next package fetch goes straight
	// to the origin — RejectedBytes does not grow. (The edge's one
	// PerEndpoint credit is the initial *index* read: a Corrupt replica
	// only tampers with package bodies, and the signed index it relays
	// verifies fine.)
	if _, err := c.FetchPackage("lib"); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.RejectedBytes != 1 || s.PerEndpoint["origin"] != 2 {
		t.Fatalf("stats after demotion = %+v", s)
	}
}

// TestFailoverClientSurvivesOriginRefresh: a long-lived client holds an
// index generation from before an origin refresh. When a package's
// hash changes, every (honest, current) endpoint serves bytes that fail
// the stale entry's hash check — the client must revalidate its index
// and retry instead of demoting the whole fleet and failing.
func TestFailoverClientSurvivesOriginRefresh(t *testing.T) {
	w := newEdgeWorld(t)
	near, far := twoEdges(t, w)
	c := newClient(w,
		Endpoint{Name: "edge-eu", Continent: netsim.Europe, Fetcher: near},
		Endpoint{Name: "edge-asia", Continent: netsim.Asia, Fetcher: far},
	)
	before, err := c.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	// The origin republishes app (new hash); the fleet syncs; this
	// client still holds the old index.
	w.update(t, "app", "1.1-r0")
	for _, rep := range []*Replica{near, far} {
		if err := rep.SyncCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.FetchPackage("app")
	if err != nil {
		t.Fatalf("fetch across origin refresh: %v", err)
	}
	if string(after) == string(before) {
		t.Fatal("client served the old generation after the origin refreshed")
	}
}

// TestQuorumCrossCheck: with K=3 and one frozen replica, the quorum
// read converges on the agreement of the two honest edges, and the
// freshness floor it establishes protects later single reads too.
func TestQuorumCrossCheck(t *testing.T) {
	w := newEdgeWorld(t)
	reps := make([]*Replica, 3)
	conts := []netsim.Continent{netsim.Europe, netsim.NorthAmerica, netsim.Asia}
	for i := range reps {
		reps[i] = &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: conts[i]}
		if err := reps[i].SyncCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// The NEAREST replica freezes — precisely the one a naive
	// latency-first client would trust.
	reps[0].SetBehavior(Freeze)
	w.update(t, "app", "1.1-r0")
	for _, rep := range reps[1:] {
		if err := rep.SyncCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	c := newClient(w,
		Endpoint{Name: "edge-eu-frozen", Continent: conts[0], Fetcher: reps[0]},
		Endpoint{Name: "edge-na", Continent: conts[1], Fetcher: reps[1]},
		Endpoint{Name: "edge-asia", Continent: conts[2], Fetcher: reps[2]},
	)
	c.QuorumK = 3
	signed, err := c.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if signed.ETag() != cur.ETag() {
		t.Fatalf("quorum agreed on %s, want current %s", signed.ETag(), cur.ETag())
	}
	// The floor from the quorum read now rejects the frozen replica
	// even in single-endpoint mode.
	c.QuorumK = 0
	reps[1].SetBehavior(Offline)
	reps[2].SetBehavior(Offline)
	if _, err := c.FetchIndex(); !errors.Is(err, index.ErrStale) {
		t.Fatalf("err = %v, want index.ErrStale from the frozen replica", err)
	}
}

// TestFailoverClientDrivesPackageManager: the multi-endpoint client is
// a drop-in pkgmgr.Source — an OS installs through the edge tier
// unmodified.
func TestFailoverClientDrivesPackageManager(t *testing.T) {
	w := newEdgeWorld(t)
	near, far := twoEdges(t, w)
	c := newClient(w,
		Endpoint{Name: "edge-eu", Continent: netsim.Europe, Fetcher: near},
		Endpoint{Name: "edge-asia", Continent: netsim.Asia, Fetcher: far},
		Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: w.tenant},
	)
	img, err := osimage.New(keys.Shared.MustGet("edge-test-os-ak"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ring := w.trust()
	mgr := pkgmgr.New(img, c, ring, ring)
	if err := mgr.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Install("app"); err != nil {
		t.Fatal(err)
	}
	if !img.FS.Exists("/usr/bin/app") {
		t.Fatal("binary missing after install through the edge tier")
	}
	s := c.Stats()
	if s.PerEndpoint["edge-eu"] == 0 {
		t.Fatalf("install bypassed the near edge: %v", s.PerEndpoint)
	}
}

// TestFailoverClientFailsClosedWithoutRing: a client with no trust ring
// cannot verify any index, so every answer is refused and no package
// is served.
func TestFailoverClientFailsClosedWithoutRing(t *testing.T) {
	w := newEdgeWorld(t)
	c := newClient(w, Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: w.tenant})
	c.TrustRing = nil
	if _, err := c.FetchIndex(); !errors.Is(err, index.ErrUntrusted) {
		t.Fatalf("FetchIndex err = %v, want index.ErrUntrusted", err)
	}
	if _, err := c.FetchPackage("app"); !errors.Is(err, index.ErrUntrusted) {
		t.Fatalf("FetchPackage err = %v, want index.ErrUntrusted", err)
	}
}
