package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsr/internal/apk"
	"tsr/internal/chaos"
	"tsr/internal/edge"
	"tsr/internal/experiments"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/obs"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// TestReplicateOverHTTP wires the full daemon topology in-process:
// origin service behind an httptest server, a replica syncing through
// tsr.Client (exactly what run() builds), and a client reading the
// replica through edge.Handler. The second origin refresh must reach
// the replica as a delta.
func TestReplicateOverHTTP(t *testing.T) {
	w, err := experiments.NewWorld(experiments.Config{Scale: 0.003, Seed: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(tsr.Handler(w.Service))
	defer originSrv.Close()

	origin := &tsr.Client{BaseURL: originSrv.URL, RepoID: w.Tenant.ID, HTTPClient: originSrv.Client()}
	rep := &edge.Replica{RepoID: w.Tenant.ID, Origin: origin, Cache: store.NewMemBudget(64 << 20)}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.FullSyncs != 1 {
		t.Fatalf("stats = %+v, want one full sync", s)
	}

	// A new origin generation: publish, mirror-sync, refresh.
	p := &apk.Package{Name: "zzz-edge", Version: "1.0-r0",
		Files: []apk.File{{Path: "/usr/bin/zzz-edge", Mode: 0o755, Content: []byte("edge")}}}
	if err := w.Publish(p); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.DeltaSyncs != 1 {
		t.Fatalf("stats = %+v, want one delta sync over HTTP", s)
	}

	// Clients read the edge like an origin, end-to-end verified.
	edgeSrv := httptest.NewServer(edge.Handler(map[string]*edge.Replica{w.Tenant.ID: rep}, "edge-test"))
	defer edgeSrv.Close()
	client := &tsr.Client{BaseURL: edgeSrv.URL, RepoID: w.Tenant.ID, HTTPClient: edgeSrv.Client()}
	signed, err := client.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := signed.Verify(keys.NewRing(w.Tenant.PublicKey()))
	if err != nil {
		t.Fatalf("edge-served index does not verify: %v", err)
	}
	if _, err := ix.Lookup("zzz-edge"); err != nil {
		t.Fatal("delta-synced package missing from edge index")
	}
	if _, err := client.FetchPackage("zzz-edge"); err != nil {
		t.Fatal(err)
	}

	// Wire-efficiency parity with tsrd on the same daemon stack: the
	// index negotiates gzip without touching the signature headers, the
	// chunk manifest is served under the package's strong ETag, and a
	// Range read comes back 206 with the FULL representation's ETag.
	raw := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	get := func(path string, hdr map[string]string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, edgeSrv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := raw.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	idResp := get("/repos/"+w.Tenant.ID+"/index", nil)
	gzResp := get("/repos/"+w.Tenant.ID+"/index", map[string]string{"Accept-Encoding": "gzip"})
	if gzResp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("edge index Content-Encoding = %q, want gzip", gzResp.Header.Get("Content-Encoding"))
	}
	for _, h := range []string{"ETag", "X-Tsr-Key-Name", "X-Tsr-Signature"} {
		if idResp.Header.Get(h) != gzResp.Header.Get(h) {
			t.Fatalf("%s differs between identity and gzip transfer", h)
		}
	}
	pkgPath := "/repos/" + w.Tenant.ID + "/packages/zzz-edge"
	full := get(pkgPath, nil)
	if full.StatusCode != http.StatusOK || full.Header.Get("ETag") == "" {
		t.Fatalf("package status = %d etag = %q", full.StatusCode, full.Header.Get("ETag"))
	}
	if mResp := get(pkgPath+"/chunks", nil); mResp.StatusCode != http.StatusOK ||
		mResp.Header.Get("ETag") != full.Header.Get("ETag") {
		t.Fatalf("chunks status = %d etag = %q, want 200 under the package ETag",
			mResp.StatusCode, mResp.Header.Get("ETag"))
	}
	rResp := get(pkgPath, map[string]string{"Range": "bytes=0-9", "If-Range": full.Header.Get("ETag")})
	if rResp.StatusCode != http.StatusPartialContent || rResp.Header.Get("ETag") != full.Header.Get("ETag") {
		t.Fatalf("range status = %d etag = %q, want 206 under the full representation's ETag",
			rResp.StatusCode, rResp.Header.Get("ETag"))
	}
}

// TestEdgeETagBodyUnderConcurrentSync hammers the exact serving stack
// run() builds — obs.New(Options{MaxInflight}).Wrap(edge.Handler(...))
// — with concurrent index and package reads while the replica syncs
// new origin generations underneath. The chaos checker holds every 200
// package response to the strong-ETag invariant (ETag == sha256 of the
// body actually served): even when a sync publishes a new generation
// mid-request, a response must never pair one generation's tag with
// another's bytes. After the churn quiesces, a final sync must leave
// every published package served and verified.
func TestEdgeETagBodyUnderConcurrentSync(t *testing.T) {
	w, err := experiments.NewWorld(experiments.Config{Scale: 0.003, Seed: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(tsr.Handler(w.Service))
	defer originSrv.Close()
	ring := keys.NewRing(w.Tenant.PublicKey())
	origin := &tsr.Client{BaseURL: originSrv.URL, RepoID: w.Tenant.ID, HTTPClient: originSrv.Client()}
	rep := &edge.Replica{RepoID: w.Tenant.ID, Origin: origin, Cache: store.NewMemBudget(64 << 20), TrustRing: ring}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	const maxInflight = 8
	gate := obs.New(obs.Options{MaxInflight: maxInflight})
	handler := gate.Wrap(edge.Handler(map[string]*edge.Replica{w.Tenant.ID: rep}, "edge-soak"))
	checker := chaos.NewChecker(ring)

	const readers, iterations = 4, 12
	var served atomic.Int64
	var wg, pubWG sync.WaitGroup
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			actor := fmt.Sprintf("reader-%d", c)
			for i := 0; i < iterations; i++ {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest("GET", "/repos/"+w.Tenant.ID+"/index", nil))
				if rec.Code != http.StatusOK {
					continue // availability under churn, not a violation
				}
				ix, err := index.Decode(rec.Body.Bytes())
				if err != nil {
					t.Errorf("%s: edge served undecodable index: %v", actor, err)
					return
				}
				for _, e := range ix.Entries {
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest("GET",
						"/repos/"+w.Tenant.ID+"/packages/"+e.Name, nil))
					checker.HTTPResponse(actor, rec.Code,
						rec.Header().Get("ETag"), rec.Header().Get("Retry-After"), rec.Body.Bytes())
					if rec.Code == http.StatusOK {
						served.Add(1)
					}
				}
			}
		}(c)
	}
	// Publisher: three new origin generations land and sync mid-read.
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for gen := 0; gen < 3; gen++ {
			p := &apk.Package{Name: fmt.Sprintf("zzz-soak-%d", gen), Version: "1.0-r0",
				Files: []apk.File{{Path: "/usr/bin/zzz-soak", Mode: 0o755,
					Content: []byte(fmt.Sprintf("gen-%d", gen))}}}
			if err := w.Publish(p); err != nil {
				t.Error(err)
				return
			}
			if _, err := w.Tenant.Refresh(); err != nil {
				t.Error(err)
				return
			}
			if err := rep.SyncCtx(context.Background()); err != nil {
				t.Errorf("mid-read sync: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	pubWG.Wait()

	checker.AdmissionSnapshot("edge", gate.Snapshot())
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	if served.Load() == 0 {
		t.Fatal("no package responses served during churn")
	}

	// Quiesce: one more sync, then every published generation's package
	// must be present and verified through the same wrapped stack.
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/repos/"+w.Tenant.ID+"/index", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-quiesce index status = %d", rec.Code)
	}
	ix, err := index.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 3; gen++ {
		name := fmt.Sprintf("zzz-soak-%d", gen)
		if _, err := ix.Lookup(name); err != nil {
			t.Fatalf("post-quiesce index missing %s", name)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/repos/"+w.Tenant.ID+"/packages/"+name, nil))
		checker.HTTPResponse("quiesce", rec.Code,
			rec.Header().Get("ETag"), rec.Header().Get("Retry-After"), rec.Body.Bytes())
		if rec.Code != http.StatusOK {
			t.Fatalf("post-quiesce fetch %s status = %d", name, rec.Code)
		}
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("post-quiesce violations: %v", v)
	}
}

func TestRunRequiresRepo(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Fatal("want error when -repo is missing")
	}
	if err := run(context.Background(), []string{"-nope"}); err == nil {
		t.Fatal("want flag error")
	}
}

// TestRunShutsDownGracefully: cancellation drains the server and stops
// the sync loop; run returns nil.
func TestRunShutsDownGracefully(t *testing.T) {
	w, err := experiments.NewWorld(experiments.Config{Scale: 0.003, Seed: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(tsr.Handler(w.Service))
	defer originSrv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-origin", originSrv.URL,
			"-repo", w.Tenant.ID,
			"-sync", "1h",
		})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
}
