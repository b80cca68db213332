package edge

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tsr/internal/index"
	"tsr/internal/store"
)

// gatedOrigin wraps an Origin and parks FetchPackage / FetchIndexDelta
// calls on a gate until released, holding the coalescing window open
// deterministically: with the leader blocked, every other requester is
// scheduled into the singleflight before the upstream call completes —
// even on one CPU.
type gatedOrigin struct {
	Origin
	pkgGate   chan struct{}
	pkgHit    chan struct{}
	pkgOnce   sync.Once
	deltaGate chan struct{}
	deltaHit  chan struct{}
	deltaOnce sync.Once
}

func (g *gatedOrigin) FetchPackageCtx(ctx context.Context, name string) ([]byte, error) {
	if g.pkgGate != nil {
		g.pkgOnce.Do(func() { close(g.pkgHit) })
		<-g.pkgGate
	}
	return g.Origin.FetchPackageCtx(ctx, name)
}

func (g *gatedOrigin) FetchIndexDeltaCtx(ctx context.Context, since string) (*index.Delta, error) {
	if g.deltaGate != nil {
		g.deltaOnce.Do(func() { close(g.deltaHit) })
		<-g.deltaGate
	}
	return g.Origin.FetchIndexDeltaCtx(ctx, since)
}

// countPulls counts origin package pulls and delta fetches.
type countPulls struct {
	Origin
	mu            sync.Mutex
	pulls, deltas int
}

func (c *countPulls) FetchPackageCtx(ctx context.Context, name string) ([]byte, error) {
	c.mu.Lock()
	c.pulls++
	c.mu.Unlock()
	return c.Origin.FetchPackageCtx(ctx, name)
}

func (c *countPulls) FetchIndexDeltaCtx(ctx context.Context, since string) (*index.Delta, error) {
	c.mu.Lock()
	c.deltas++
	c.mu.Unlock()
	return c.Origin.FetchIndexDeltaCtx(ctx, since)
}

// TestFlashCrowdCoalescesOriginPulls is the flash-crowd acceptance
// test: K concurrent cold misses for the same package must reach the
// origin exactly once, with every requester receiving the verified
// bytes. Run under -race it also proves the shared-bytes path is safe.
func TestFlashCrowdCoalescesOriginPulls(t *testing.T) {
	w := newEdgeWorld(t)
	const k = 32
	counted := &countPulls{Origin: w.tenant}
	gated := &gatedOrigin{
		Origin:  counted,
		pkgGate: make(chan struct{}), pkgHit: make(chan struct{}),
	}
	rep := &Replica{RepoID: "r", Origin: gated, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Hold the leader's pull open until the whole crowd has arrived.
	go func() {
		<-gated.pkgHit
		time.Sleep(50 * time.Millisecond)
		close(gated.pkgGate)
	}()

	var wg sync.WaitGroup
	gate := make(chan struct{})
	results := make([][]byte, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			results[i], errs[i] = rep.FetchPackageCtx(context.Background(), "app")
		}(i)
	}
	close(gate)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("requester %d: %v", i, errs[i])
		}
	}
	for i := 1; i < k; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("requester %d got different bytes than requester 0", i)
		}
	}
	if counted.pulls != 1 {
		t.Fatalf("%d origin pulls for %d concurrent cold misses, want exactly 1", counted.pulls, k)
	}
	s := rep.Stats()
	if s.OriginPackages != 1 {
		t.Fatalf("OriginPackages = %d, want 1", s.OriginPackages)
	}
	if s.PackageReads != k {
		t.Fatalf("PackageReads = %d, want %d", s.PackageReads, k)
	}
	if s.CoalescedPulls != k-1 {
		t.Fatalf("CoalescedPulls = %d, want %d", s.CoalescedPulls, k-1)
	}
}

// TestSyncStormCoalesces verifies a POST /sync storm collapses into
// one origin round trip: K concurrent Sync calls against a one-behind
// replica perform exactly one delta fetch.
func TestSyncStormCoalesces(t *testing.T) {
	w := newEdgeWorld(t)
	counted := &countPulls{Origin: w.tenant}
	gated := &gatedOrigin{
		Origin:    counted,
		deltaGate: make(chan struct{}), deltaHit: make(chan struct{}),
	}
	rep := &Replica{RepoID: "r", Origin: gated, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.update(t, "app", "1.1-r0")

	go func() {
		<-gated.deltaHit
		time.Sleep(50 * time.Millisecond)
		close(gated.deltaGate)
	}()

	const k = 16
	var wg sync.WaitGroup
	gate := make(chan struct{})
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			errs[i] = rep.SyncCtx(context.Background())
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if counted.deltas != 1 {
		t.Fatalf("%d origin delta fetches for %d concurrent syncs, want exactly 1", counted.deltas, k)
	}
	if s := rep.Stats(); s.CoalescedSyncs != k-1 {
		t.Fatalf("CoalescedSyncs = %d, want %d", s.CoalescedSyncs, k-1)
	}
	// The storm landed the replica on the new generation.
	signed := mustSigned(t, rep)
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Lookup("app"); err != nil {
		t.Fatal(err)
	}
}

// scriptedOrigin serves a switchable signed index and fixed package
// bytes, with a gate on FetchPackage — the instrument for forcing a
// sync to publish between the handler's entry resolution and the
// origin pull's return.
type scriptedOrigin struct {
	mu     sync.Mutex
	signed *index.Signed
	etag   string
	pkgs   map[string][]byte
	gate   chan struct{}
	hit    chan struct{}
	once   sync.Once
}

func (o *scriptedOrigin) setIndex(signed *index.Signed, etag string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.signed, o.etag = signed, etag
}

func (o *scriptedOrigin) FetchIndexTaggedCtx(context.Context) (*index.Signed, string, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.signed.Clone(), o.etag, nil
}

func (o *scriptedOrigin) FetchIndexDeltaCtx(context.Context, string) (*index.Delta, error) {
	return nil, index.ErrNoDelta // force full syncs; delta is not under test
}

func (o *scriptedOrigin) FetchChunkManifestCtx(context.Context, string) (*store.ChunkManifest, error) {
	return nil, errNoChunkManifests
}

func (o *scriptedOrigin) FetchPackageCtx(_ context.Context, name string) ([]byte, error) {
	if o.gate != nil {
		o.once.Do(func() { close(o.hit) })
		<-o.gate
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	raw, ok := o.pkgs[name]
	if !ok {
		return nil, errors.New("scripted origin: no such package")
	}
	return append([]byte(nil), raw...), nil
}

// TestPackageETagMatchesBodyAcrossSyncPublish pins the ETag/body
// agreement the handler must uphold: a sync that publishes a new
// generation between the handler's fetch and its header write must NOT
// produce a response pairing the old generation's bytes with the new
// generation's ETag. The handler resolves the index entry once and
// derives conditional check, fetch, and headers from it, so the served
// pair is always self-consistent.
func TestPackageETagMatchesBodyAcrossSyncPublish(t *testing.T) {
	w := newEdgeWorld(t)

	// Capture generation 1 (app 1.0) and generation 2 (app 2.0).
	signed1, etag1, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	app1, err := w.tenant.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	w.update(t, "app", "2.0-r0")
	signed2, etag2, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	origin := &scriptedOrigin{
		pkgs: map[string][]byte{"app": app1}, // origin still returns gen-1 bytes
		gate: make(chan struct{}),
		hit:  make(chan struct{}),
	}
	origin.setIndex(signed1, etag1)
	rep := &Replica{RepoID: "r", Origin: origin, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	handler := Handler(map[string]*Replica{"r": rep}, "race-edge")
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/repos/r/packages/app", nil))
	}()

	// The handler is now parked inside the origin pull. Publish
	// generation 2 on the replica, then let the pull return gen-1
	// bytes.
	<-origin.hit
	origin.setIndex(signed2, etag2)
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := rep.ETag(); got != etag2 {
		t.Fatalf("replica etag = %s, want gen-2 %s", got, etag2)
	}
	close(origin.gate)
	<-done

	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.Bytes()
	sum := sha256.Sum256(body)
	wantETag := `"` + hex.EncodeToString(sum[:]) + `"`
	if got := rec.Header().Get("ETag"); got != wantETag {
		t.Fatalf("ETag %s does not match the served body (hash %s): the handler paired one generation's headers with another's bytes", got, wantETag)
	}
	if !bytes.Equal(body, app1) {
		t.Fatalf("served bytes are not the gen-1 package the origin returned")
	}
}

// TestPackageRangeETagMatchesBodyAcrossSyncPublish extends the race
// pin above to Range serving: a 206 produced while a sync publishes a
// new generation must still pair the slice, the Content-Range, and the
// strong ETag from ONE resolution — the ETag is the hash of the full
// representation the slice was cut from, never the new generation's.
func TestPackageRangeETagMatchesBodyAcrossSyncPublish(t *testing.T) {
	w := newEdgeWorld(t)

	signed1, etag1, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	app1, err := w.tenant.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	w.update(t, "app", "2.0-r0")
	signed2, etag2, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	origin := &scriptedOrigin{
		pkgs: map[string][]byte{"app": app1},
		gate: make(chan struct{}),
		hit:  make(chan struct{}),
	}
	origin.setIndex(signed1, etag1)
	rep := &Replica{RepoID: "r", Origin: origin, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	handler := Handler(map[string]*Replica{"r": rep}, "race-edge")
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/repos/r/packages/app", nil)
	req.Header.Set("Range", "bytes=2-9")
	done := make(chan struct{})
	go func() {
		defer close(done)
		handler.ServeHTTP(rec, req)
	}()

	<-origin.hit
	origin.setIndex(signed2, etag2)
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(origin.gate)
	<-done

	if rec.Code != http.StatusPartialContent {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	sum := sha256.Sum256(app1)
	wantETag := `"` + hex.EncodeToString(sum[:]) + `"`
	if got := rec.Header().Get("ETag"); got != wantETag {
		t.Fatalf("206 ETag %s is not the full gen-1 representation's %s: headers and slice come from different generations", got, wantETag)
	}
	wantCR := fmt.Sprintf("bytes 2-9/%d", len(app1))
	if got := rec.Header().Get("Content-Range"); got != wantCR {
		t.Fatalf("Content-Range = %q, want %q", got, wantCR)
	}
	if !bytes.Equal(rec.Body.Bytes(), app1[2:10]) {
		t.Fatal("206 body is not the requested slice of the gen-1 bytes")
	}
}

// erroringOrigin fails every call with a fixed error.
type erroringOrigin struct{ err error }

func (o erroringOrigin) FetchIndexTaggedCtx(context.Context) (*index.Signed, string, error) {
	return nil, "", o.err
}
func (o erroringOrigin) FetchIndexDeltaCtx(context.Context, string) (*index.Delta, error) {
	return nil, o.err
}
func (o erroringOrigin) FetchPackageCtx(context.Context, string) ([]byte, error) { return nil, o.err }
func (o erroringOrigin) FetchChunkManifestCtx(context.Context, string) (*store.ChunkManifest, error) {
	return nil, o.err
}

// TestSyncErrorStatusMapping verifies POST /sync maps failures through
// statusFor: availability conditions (offline/not-synced upstream) are
// 503, only genuine upstream protocol failures remain 502.
func TestSyncErrorStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"offline upstream", ErrOffline, http.StatusServiceUnavailable},
		{"unsynced upstream", ErrNotSynced, http.StatusServiceUnavailable},
		{"origin protocol failure", errors.New("upstream exploded"), http.StatusBadGateway},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := &Replica{RepoID: "r", Origin: erroringOrigin{err: tc.err}}
			handler := Handler(map[string]*Replica{"r": rep}, "edge")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/repos/r/sync", nil))
			if rec.Code != tc.want {
				t.Fatalf("POST /sync with %v: HTTP %d, want %d", tc.err, rec.Code, tc.want)
			}
		})
	}
}
