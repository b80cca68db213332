package tsr

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/mirror"
	"tsr/internal/quorum"
	"tsr/internal/store"
)

// TestReadsServeSnapshotDuringRefresh is the acceptance test for the
// non-blocking read path: while a cold refresh (full re-sanitization
// after a plan change) holds the repository lock, index and package
// reads keep being served from the previously published snapshot. Run
// under -race in CI, it also exercises the snapshot swap against a
// storm of concurrent readers.
func TestReadsServeSnapshotDuringRefresh(t *testing.T) {
	w := newWorld(t, 3)
	populate(t, w, 24)
	r := w.deploy(t)
	r.SetWorkers(4)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	signed, err := r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	oldIx, err := index.Decode(signed.Raw)
	if err != nil {
		t.Fatal(err)
	}
	oldSeq := oldIx.Sequence

	// A new account-creating package invalidates the sanitization plan:
	// the next refresh re-sanitizes the whole population — the longest
	// cycle the pipeline has — while the old snapshot keeps serving.
	w.publish(t, pkgWithScript("zzz-acct", "1.0-r0", "adduser -S zzz\n"))

	refreshStart := time.Now()
	refreshDone := make(chan struct{})
	go func() {
		defer close(refreshDone)
		if _, err := r.Refresh(); err != nil {
			t.Errorf("refresh: %v", err)
		}
	}()

	// Background hammer: package fetches and stats reads racing the
	// refresh (package bytes may be mid-overwrite, which must resolve
	// to a deterministic re-sanitize of the snapshot's version — never
	// an error).
	var hammering sync.WaitGroup
	for i := 0; i < 3; i++ {
		hammering.Add(1)
		go func() {
			defer hammering.Done()
			for {
				select {
				case <-refreshDone:
					return
				default:
				}
				if _, err := r.FetchPackage("pkg00"); err != nil {
					t.Errorf("package read during refresh: %v", err)
					return
				}
				r.CacheStats()
				r.RejectedPackages()
			}
		}()
	}

	// Foreground: time index reads until the refresh publishes.
	var during []time.Duration
	sawOldSnapshot := false
	for {
		start := time.Now()
		signed, err := r.FetchIndex()
		lat := time.Since(start)
		if err != nil {
			t.Fatalf("index read during refresh: %v", err)
		}
		select {
		case <-refreshDone:
			// The read may have raced the publish; stop sampling.
		default:
			during = append(during, lat)
			ix, err := index.Decode(signed.Raw)
			if err != nil {
				t.Fatal(err)
			}
			if ix.Sequence == oldSeq {
				sawOldSnapshot = true
			}
			continue
		}
		break
	}
	refreshWall := time.Since(refreshStart)
	hammering.Wait()

	if len(during) == 0 {
		t.Skip("refresh finished before any read was sampled (machine too fast for this population)")
	}
	if !sawOldSnapshot {
		t.Fatal("no read observed the previous snapshot while the refresh was in flight")
	}
	sort.Slice(during, func(i, j int) bool { return during[i] < during[j] })
	median := during[len(during)/2]
	// Under the old design every read waited for the remaining refresh,
	// putting the median near half the cycle. Snapshot reads are pointer
	// loads plus a small clone; give a wide margin for -race and a
	// loaded CPU, but stay far below lock-wait territory.
	if limit := refreshWall / 10; median >= limit {
		t.Fatalf("median index read %v during a %v refresh (limit %v): reads are blocking on the refresh",
			median, refreshWall, limit)
	}
	t.Logf("%d index reads during a %v refresh: median %v, max %v",
		len(during), refreshWall, median, during[len(during)-1])

	// The refresh published: reads now see the new sequence.
	signed, err = r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Sequence != oldSeq+1 {
		t.Fatalf("sequence after refresh = %d, want %d", ix.Sequence, oldSeq+1)
	}
}

// TestVersionUpdateDoesNotBreakStaleSnapshotReads updates every
// package's version upstream and reads one of them continuously while
// the refresh ingests the new generation. The byte caches are
// content-addressed per generation, so the old snapshot's bytes stay
// servable until after publish: no read may ever fail, and each must
// return a decodable package at either the old or the new version.
func TestVersionUpdateDoesNotBreakStaleSnapshotReads(t *testing.T) {
	build := func(version string) []*apk.Package {
		var pkgs []*apk.Package
		for i := 0; i < 16; i++ {
			p := pkgWithScript(fmt.Sprintf("pkg%02d", i), version, "adduser -S u00\n")
			p.Files[0].Content = []byte(fmt.Sprintf("%s-%s", p.Name, version))
			pkgs = append(pkgs, p)
		}
		return pkgs
	}
	w := newWorld(t, 3)
	w.publish(t, build("1.0-r0")...)
	r := w.deploy(t)
	r.SetWorkers(4)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}

	w.publish(t, build("1.1-r0")...)
	refreshDone := make(chan struct{})
	go func() {
		defer close(refreshDone)
		if _, err := r.Refresh(); err != nil {
			t.Errorf("refresh: %v", err)
		}
	}()
	versions := make(map[string]bool)
	for sampled := 0; ; sampled++ {
		raw, err := r.FetchPackage("pkg05")
		if err != nil {
			t.Fatalf("read %d during version-update refresh: %v", sampled, err)
		}
		p, err := apk.Decode(raw)
		if err != nil {
			t.Fatalf("read %d returned undecodable bytes: %v", sampled, err)
		}
		if p.Version != "1.0-r0" && p.Version != "1.1-r0" {
			t.Fatalf("read %d served version %q", sampled, p.Version)
		}
		versions[p.Version] = true
		select {
		case <-refreshDone:
		default:
			continue
		}
		break
	}
	if !versions["1.0-r0"] {
		t.Log("refresh published before any stale-generation read was sampled")
	}
	raw, err := r.FetchPackage("pkg05")
	if err != nil {
		t.Fatal(err)
	}
	if p, err := apk.Decode(raw); err != nil || p.Version != "1.1-r0" {
		t.Fatalf("post-publish read = %+v, %v", p, err)
	}
}

// TestFailedRefreshKeepsServingPreviousSnapshot takes the whole mirror
// fleet offline: the refresh fails, and both the index and package
// reads keep answering from the last published snapshot.
func TestFailedRefreshKeepsServingPreviousSnapshot(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	before, err := r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range w.mirrors {
		m.SetBehavior(mirror.Offline)
	}
	if _, err := r.Refresh(); !errors.Is(err, ErrUpstream) {
		t.Fatalf("refresh err = %v, want ErrUpstream", err)
	}
	after, err := r.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	if string(after.Raw) != string(before.Raw) {
		t.Fatal("failed refresh changed the served index")
	}
	if _, err := r.FetchPackage("app"); err != nil {
		t.Fatalf("package unservable after failed refresh: %v", err)
	}
}

// TestRefreshReconcilesServedWrites: a serving-path write that
// resurrected an already-evicted cache generation (a reader racing a
// publish) must be cleaned up by the next refresh's reconcile, while
// recorded writes the published state still references survive.
func TestRefreshReconcilesServedWrites(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Simulate the race: a blob of a generation no published state
	// references, written (and recorded) by a stale-snapshot reader.
	staleKey := r.sanitizedKey("app", [32]byte{0xde, 0xad})
	if err := w.store.Put(staleKey, []byte("resurrected stale generation")); err != nil {
		t.Fatal(err)
	}
	r.noteServedWrite(staleKey)
	// And a recorded repair of the CURRENT generation.
	r.mu.Lock()
	entry, err := r.local.Lookup("app")
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	currentKey := r.sanitizedKey("app", entry.Hash)
	r.noteServedWrite(currentKey)

	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.store.Get(staleKey); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("stale generation not reconciled away: %v", err)
	}
	if _, err := w.store.Get(currentKey); err != nil {
		t.Fatalf("current generation evicted by reconcile: %v", err)
	}
	if _, err := r.FetchPackage("app"); err != nil {
		t.Fatal(err)
	}
}

// TestVersionRollbackResanitizes: when upstream reverts a package to a
// previously seen version (A→B→A), the sanitization-cache metadata of
// the A generation was evicted together with its bytes at the B
// refresh, so the rollback refresh must re-sanitize A — not count a
// cache hit for an entry whose bytes no longer exist.
func TestVersionRollbackResanitizes(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	w.publish(t, pkgWithScript("app", "1.1-r0", ""))
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	w.publish(t, pkgWithScript("app", "1.0-r0", "")) // upstream rollback
	stats, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sanitized != 1 || stats.CacheHits != 0 {
		t.Fatalf("rollback refresh = %+v (cache hit on an evicted generation?)", stats)
	}
	// The published entry has real bytes behind it: served straight
	// from the sanitized cache, no on-demand repair.
	_, res, err := r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if res.From != ServedSanitizedCache {
		t.Fatalf("from = %v, want sanitized-cache", res.From)
	}
}

// TestHTTPConditionalRequests exercises the ETag / If-None-Match / 304
// semantics on both the index and package endpoints, and the not_modified
// counter they feed.
func TestHTTPConditionalRequests(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}

	get := func(path, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Index: 200 with a strong ETag, then 304 on revalidation.
	indexPath := "/repos/" + r.ID + "/index"
	resp := get(indexPath, "")
	if resp.StatusCode != 200 {
		t.Fatalf("index status = %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || resp.Header.Get("Cache-Control") != "no-cache" {
		t.Fatalf("index caching headers = %q / %q", etag, resp.Header.Get("Cache-Control"))
	}
	resp = get(indexPath, etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp.StatusCode)
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("304 ETag = %q, want %q", resp.Header.Get("ETag"), etag)
	}
	// Weak-prefixed and multi-value If-None-Match also match.
	if resp := get(indexPath, `"bogus", W/`+etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("multi-value revalidation status = %d", resp.StatusCode)
	}
	// A stale tag re-downloads.
	if resp := get(indexPath, `"stale"`); resp.StatusCode != 200 {
		t.Fatalf("stale tag status = %d", resp.StatusCode)
	}

	// Package: same dance; the ETag is the content hash.
	pkgPath := "/repos/" + r.ID + "/packages/app"
	resp = get(pkgPath, "")
	if resp.StatusCode != 200 {
		t.Fatalf("package status = %d", resp.StatusCode)
	}
	pkgTag := resp.Header.Get("ETag")
	if wantTag, err := r.PackageETag("app"); err != nil || pkgTag != wantTag {
		t.Fatalf("package ETag = %q, want %q (%v)", pkgTag, wantTag, err)
	}
	if resp := get(pkgPath, pkgTag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("package revalidation status = %d", resp.StatusCode)
	}

	stats := r.CacheStats()
	if stats.NotModified != 3 {
		t.Fatalf("not_modified = %d, want 3", stats.NotModified)
	}
	if stats.IndexReads == 0 || stats.PackageReads == 0 {
		t.Fatalf("read counters = %+v", stats)
	}

	// A refresh that changes the index rotates the ETag.
	w.publish(t, pkgWithScript("app", "1.1-r0", ""))
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	resp = get(indexPath, etag)
	if resp.StatusCode != 200 {
		t.Fatalf("post-refresh revalidation = %d, want 200 (new index)", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatal("ETag did not rotate after the index changed")
	}
}

// TestClientRevalidatesIndex drives tsr.Client against the live
// handler: the second FetchIndex must be answered 304 from the server
// and return the cached (still signed, still verifiable) index.
func TestClientRevalidatesIndex(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}

	client := &Client{BaseURL: srv.URL, RepoID: r.ID, HTTPClient: srv.Client()}
	first, err := client.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheStats().NotModified != 1 {
		t.Fatalf("not_modified = %d, want 1 (client did not revalidate)", r.CacheStats().NotModified)
	}
	if string(second.Raw) != string(first.Raw) {
		t.Fatal("cached index differs from the original")
	}
	if _, err := second.Verify(keys.NewRing(r.PublicKey())); err != nil {
		t.Fatalf("cached index no longer verifies: %v", err)
	}

	// After a refresh the ETag rotates and the client transparently
	// downloads the new index.
	w.publish(t, pkgWithScript("app", "1.1-r0", ""))
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	third, err := client.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := third.Verify(keys.NewRing(r.PublicKey()))
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := ix.Lookup("app"); e.Version != "1.1-r0" {
		t.Fatalf("app = %+v after refresh", e)
	}
}

// TestClientRejectsMissingSignatureHeaders is the signature-header
// bugfix: a 200 response without X-Tsr-Signature/X-Tsr-Key-Name used to
// decode into an index.Signed with empty Sig that failed verification
// mysteriously downstream. The client must fail fast instead.
func TestClientRejectsMissingSignatureHeaders(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A plain mirror (or a misconfigured proxy) serving an index
		// body without the TSR signature headers.
		fmt.Fprint(w, "origin = nope\nsequence = 1\n")
	}))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL, RepoID: "r0", HTTPClient: srv.Client()}
	_, err := client.FetchIndex()
	if err == nil {
		t.Fatal("index without signature headers accepted")
	}
	if !strings.Contains(err.Error(), headerSignature) {
		t.Fatalf("err = %v, want a mention of the missing %s header", err, headerSignature)
	}
}

// TestPolicyBodyTooLarge is the body-limit bugfix: an oversized policy
// must be refused with 413, not silently truncated at 10 MiB and parsed
// as if it were complete.
func TestPolicyBodyTooLarge(t *testing.T) {
	w := newWorld(t, 3)
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	huge := strings.NewReader("mirrors:\n" + strings.Repeat("# padding\n", maxPolicyBytes/10+1))
	resp, err := srv.Client().Post(srv.URL+"/policies", "application/yaml", huge)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized policy status = %d, want 413", resp.StatusCode)
	}
}

// TestRefreshErrorStatusCodes: 502 is reserved for upstream failures
// (mirror quorum unreachable); a repository that cannot even quorum-read
// surfaces as Bad Gateway, while unknown repositories stay 404.
func TestRefreshErrorStatusCodes(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	r := w.deploy(t)

	for _, m := range w.mirrors {
		m.SetBehavior(mirror.Offline)
	}
	resp, err := srv.Client().Post(srv.URL+"/repos/"+r.ID+"/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("offline-quorum refresh status = %d, want 502", resp.StatusCode)
	}
	// The sentinel chain stays inspectable for programmatic callers.
	if _, err := r.Refresh(); !errors.Is(err, ErrUpstream) || !errors.Is(err, quorum.ErrNoQuorum) {
		t.Fatalf("err = %v, want ErrUpstream wrapping quorum.ErrNoQuorum", err)
	}

	resp, err = srv.Client().Post(srv.URL+"/repos/nope/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown repo refresh status = %d, want 404", resp.StatusCode)
	}
}

// TestSetCacheModeRepublishesSnapshot: changing the Figure 10 scenario
// must reach the lock-free serving path immediately, including while
// concurrent reads are in flight.
func TestSetCacheModeRepublishesSnapshot(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, _, err := r.FetchPackageTracedCtx(context.Background(), "app"); err != nil {
				t.Errorf("read during mode flips: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		r.SetCacheMode(CacheOriginalOnly)
		r.SetCacheMode(CacheBoth)
	}
	r.SetCacheMode(CacheOriginalOnly)
	stop.Store(true)
	wg.Wait()
	_, res, err := r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	if res.From != ServedOriginalCache {
		t.Fatalf("from = %v, want original-cache after SetCacheMode", res.From)
	}
}
