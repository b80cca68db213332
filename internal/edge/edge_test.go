package edge

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/store"
	"tsr/internal/testbed"
	"tsr/internal/tsr"
)

// edgeWorld is an origin deployment (a testbed and its one refreshed
// tenant) for edge tests.
type edgeWorld struct {
	*testbed.Testbed
	store  *store.Mem // the origin's package store
	tenant *tsr.Repo
}

func newEdgeWorld(t *testing.T) *edgeWorld {
	t.Helper()
	w := &edgeWorld{store: store.NewMem()}
	var err error
	w.Testbed, err = testbed.New(testbed.Options{Host: tsr.Config{Store: w.store}})
	if err != nil {
		t.Fatal(err)
	}
	w.publish(t, testPkg("app", "1.0-r0"), testPkg("lib", "1.0-r0"), testPkg("tool", "1.0-r0"))
	w.tenant = w.deploy(t, w.Service)
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

// deploy deploys the world's policy on svc.
func (w *edgeWorld) deploy(t *testing.T, svc *tsr.Service) *tsr.Repo {
	t.Helper()
	id, _, _, err := svc.DeployPolicy(w.Policy.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	r, err := svc.Repo(id)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testPkg(name, version string) *apk.Package {
	return &apk.Package{
		Name: name, Version: version,
		Files: []apk.File{{Path: "/usr/bin/" + name, Mode: 0o755, Content: []byte(name + version)}},
	}
}

func (w *edgeWorld) publish(t *testing.T, pkgs ...*apk.Package) {
	t.Helper()
	if err := w.Publish(pkgs...); err != nil {
		t.Fatal(err)
	}
}

// update publishes a new version of a package and refreshes the origin,
// producing a new index generation.
func (w *edgeWorld) update(t *testing.T, name, version string) {
	t.Helper()
	w.publish(t, testPkg(name, version))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
}

func (w *edgeWorld) trust() *keys.Ring { return keys.NewRing(w.tenant.PublicKey()) }

// --- replica sync ------------------------------------------------------

func TestReplicaFullThenDeltaSync(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.Oceania, TrustRing: w.trust()}

	// First contact: full fetch.
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.FullSyncs != 1 || s.DeltaSyncs != 0 {
		t.Fatalf("stats after first sync = %+v", s)
	}
	origin, _, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, etag, err := rep.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The replica serves the origin's signed index verbatim: same
	// bytes, same key name, same signature, same ETag.
	if string(got.Raw) != string(origin.Raw) || got.KeyName != origin.KeyName ||
		!strings.EqualFold(base64.StdEncoding.EncodeToString(got.Sig), base64.StdEncoding.EncodeToString(origin.Sig)) {
		t.Fatal("replica does not re-expose the origin's signed index verbatim")
	}
	if etag != origin.ETag() {
		t.Fatalf("etag = %s, want %s", etag, origin.ETag())
	}

	// Unchanged origin: sync is a no-op.
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.NoopSyncs != 1 {
		t.Fatalf("stats after noop sync = %+v", s)
	}

	// One generation ahead: delta sync.
	w.update(t, "app", "1.1-r0")
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.DeltaSyncs != 1 || s.FullSyncs != 1 {
		t.Fatalf("stats after delta sync = %+v", s)
	}

	// TWO generations ahead: the origin still retains the base, so one
	// delta spans both generations.
	w.update(t, "lib", "1.1-r0")
	w.update(t, "tool", "1.1-r0")
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.DeltaSyncs != 2 || s.FullFallbacks != 0 {
		t.Fatalf("stats after 2-generation delta = %+v", s)
	}
	cur, _, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = rep.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Raw) != string(cur.Raw) {
		t.Fatal("replica diverged from origin after delta syncs")
	}
	ix, err := index.Decode(got.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := ix.Lookup("tool"); e.Version != "1.1-r0" {
		t.Fatalf("tool = %+v after delta sync", e)
	}
}

func TestReplicaFallsBackToFullFetchWhenHistoryExpired(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.SouthAmerica}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Push the replica's base generation out of the origin's retained
	// history (maxIndexHistory generations on the origin side).
	for i := 0; i < 9; i++ {
		w.update(t, "app", fmt.Sprintf("2.%d-r0", i))
	}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := rep.Stats()
	if s.FullFallbacks != 1 || s.FullSyncs != 2 || s.DeltaSyncs != 0 {
		t.Fatalf("stats = %+v, want a full-fetch fallback", s)
	}
	cur, _, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ETag() != cur.ETag() {
		t.Fatal("replica not current after fallback")
	}
}

// errNoChunkManifests is the chunk-manifest answer of the test origins
// that keep no manifests: a differential pull from them fails and falls
// back to a full fetch.
var errNoChunkManifests = errors.New("test origin serves no chunk manifests")

// corruptOrigin wraps an Origin and flips a byte in every package.
type corruptOrigin struct{ Origin }

func (c corruptOrigin) FetchPackageCtx(ctx context.Context, name string) ([]byte, error) {
	raw, err := c.Origin.FetchPackageCtx(ctx, name)
	if err == nil && len(raw) > 0 {
		raw = append([]byte(nil), raw...)
		raw[0] ^= 0xFF
	}
	return raw, err
}

func TestReplicaPullThroughCacheVerifies(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.Oceania}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, err := w.tenant.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.FetchPackageCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(want) {
		t.Fatal("replica served different bytes than origin")
	}
	raw2, err := rep.FetchPackageCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw2) != string(want) {
		t.Fatal("cached bytes differ")
	}
	s := rep.Stats()
	if s.OriginPackages != 1 || s.PackageHits != 1 {
		t.Fatalf("stats = %+v, want 1 origin pull + 1 cache hit", s)
	}

	// Absorption: a warm replica serving R reads over M distinct names
	// makes at most M origin package pulls, however large R grows.
	names := []string{"app", "lib", "tool"}
	const reads = 30
	for i := 0; i < reads; i++ {
		if _, err := rep.FetchPackageCtx(context.Background(), names[i%len(names)]); err != nil {
			t.Fatal(err)
		}
	}
	if s := rep.Stats(); s.OriginPackages > int64(len(names)) {
		t.Fatalf("%d reads over %d names made %d origin pulls, want <= %d",
			reads, len(names), s.OriginPackages, len(names))
	}

	// A corrupting origin path is detected before caching: the replica
	// refuses to serve and does not poison its cache.
	bad := &Replica{RepoID: w.tenant.ID, Origin: corruptOrigin{w.tenant}, Continent: netsim.Oceania}
	if err := bad.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.FetchPackageCtx(context.Background(), "app"); err == nil {
		t.Fatal("corrupt origin bytes accepted")
	}
	if s := bad.Stats(); s.CacheEntries != 0 {
		t.Fatalf("corrupt bytes were cached: %+v", s)
	}

	// Unknown package: index miss, no origin contact.
	if _, err := rep.FetchPackageCtx(context.Background(), "nope"); !errors.Is(err, index.ErrNotFound) {
		t.Fatalf("err = %v, want index.ErrNotFound", err)
	}
}

func TestReplicaCacheBudgetEvicts(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.Oceania, Cache: store.NewMemBudget(1)}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.FetchPackageCtx(context.Background(), "app"); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.FetchPackageCtx(context.Background(), "app"); err != nil {
		t.Fatal(err)
	}
	s := rep.Stats()
	// Budget of 1 byte: nothing fits, every request pulls through.
	if s.PackageHits != 0 || s.OriginPackages != 2 || s.CacheBytes != 0 {
		t.Fatalf("stats = %+v, want all pull-throughs under a 1-byte budget", s)
	}
}

// TestReplicaWarmRestartResumesDeltaSync: a replica on a disk store
// with PersistIndex journals its generation; a "restarted" replica
// (fresh object, reopened store, LoadState) serves immediately without
// touching the origin, keeps its package cache, and its next Sync
// against a moved-on origin is a DELTA — not a full index fetch.
func TestReplicaWarmRestartResumesDeltaSync(t *testing.T) {
	w := newEdgeWorld(t)
	dir := t.TempDir()
	st1, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep1 := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Cache: st1, PersistIndex: true}
	if err := rep1.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := rep1.FetchPackageCtx(context.Background(), "app"); err != nil {
		t.Fatal(err)
	}
	tag := rep1.ETag()

	// "Restart": a fresh replica over a reopened (re-scrubbed) store.
	st2, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Cache: st2, PersistIndex: true,
		TrustRing: w.trust()}
	if err := rep2.LoadState(); err != nil {
		t.Fatal(err)
	}
	if rep2.ETag() != tag {
		t.Fatalf("restored etag = %s, want %s", rep2.ETag(), tag)
	}
	// Serves without any origin contact, from the restored index and
	// the persisted package cache.
	if _, err := rep2.FetchPackageCtx(context.Background(), "app"); err != nil {
		t.Fatal(err)
	}
	if s := rep2.Stats(); s.PackageHits != 1 || s.OriginPackages != 0 || s.FullSyncs != 0 {
		t.Fatalf("stats after warm restart = %+v", s)
	}

	// The origin moves on; the restarted replica catches up via delta.
	w.update(t, "app", "1.1-r0")
	if err := rep2.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := rep2.Stats()
	if s.DeltaSyncs != 1 || s.FullSyncs != 0 || s.FullFallbacks != 0 {
		t.Fatalf("restarted replica did not resume delta sync: %+v", s)
	}

	// A replica without persisted state on the same topology does the
	// full fetch the warm restart avoided.
	if err := (&Replica{RepoID: w.tenant.ID, Origin: w.tenant, Cache: store.NewMem()}).LoadState(); !errors.Is(err, ErrNoState) {
		t.Fatalf("LoadState on empty store = %v, want ErrNoState", err)
	}
}

// TestReplicaDiskTamperDegradesToPullThrough: rewriting a cached
// package on the replica's disk is caught by the per-serve hash check;
// the replica re-pulls from the origin and heals its cache.
func TestReplicaDiskTamperDegradesToPullThrough(t *testing.T) {
	w := newEdgeWorld(t)
	st, err := store.OpenFS(t.TempDir(), store.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Cache: st}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, err := rep.FetchPackageCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	// The adversary rewrites the cached blob through the store (valid
	// frame, wrong content).
	ix, err := index.Decode(mustSigned(t, rep).Raw)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := ix.Lookup("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(cacheKey(entry.Hash), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	got, err := rep.FetchPackageCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("tampered cache served")
	}
	if s := rep.Stats(); s.OriginPackages != 2 {
		t.Fatalf("stats = %+v, want tampered hit re-pulled", s)
	}
	// Healed: next read is a cache hit again.
	if _, err := rep.FetchPackageCtx(context.Background(), "app"); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.PackageHits != 1 {
		t.Fatalf("stats = %+v, want healed cache hit", s)
	}
}

func mustSigned(t *testing.T, rep *Replica) *index.Signed {
	t.Helper()
	signed, _, err := rep.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return signed
}

// --- edge HTTP handler -------------------------------------------------

func TestEdgeHandlerServesAndRevalidates(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.NorthAmerica}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(map[string]*Replica{w.tenant.ID: rep}, "edge-na-1"))
	defer srv.Close()

	// The signed index comes out with the origin's signature headers
	// and verifies against the origin's public key — a tsr.Client can
	// read an edge exactly like the origin.
	client := &tsr.Client{BaseURL: srv.URL, RepoID: w.tenant.ID, HTTPClient: srv.Client()}
	signed, etag, err := client.FetchIndexTagged()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := signed.Verify(w.trust()); err != nil {
		t.Fatalf("edge-served index does not verify: %v", err)
	}
	if etag != rep.ETag() {
		t.Fatalf("etag = %s, want %s", etag, rep.ETag())
	}

	// Conditional revalidation answers 304.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/repos/"+w.tenant.ID+"/index", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp.StatusCode)
	}
	if resp.Header.Get("X-Tsr-Edge") != "edge-na-1" {
		t.Fatalf("X-Tsr-Edge = %q", resp.Header.Get("X-Tsr-Edge"))
	}

	// Package fetch through the HTTP client verifies against the index.
	raw, err := client.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := w.tenant.FetchPackage("app")
	if string(raw) != string(want) {
		t.Fatal("edge-served package differs")
	}

	// Unknown repo 404; unsynced replica 503; sync endpoint works.
	resp, err = srv.Client().Get(srv.URL + "/repos/nope/index")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown repo = %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = srv.Client().Post(srv.URL+"/repos/"+w.tenant.ID+"/sync", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sync = %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}
