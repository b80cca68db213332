package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsr/internal/chaos"
	"tsr/internal/index"
	"tsr/internal/obs"
	"tsr/internal/tsr"
)

// testLogger discards output: the helpers under test log operational
// chatter the tests do not assert on.
func testLogger() *slog.Logger {
	log, err := obs.NewLogger(io.Discard, "text", "tsrd-test")
	if err != nil {
		panic(err)
	}
	return log
}

func TestBuildServiceAndServe(t *testing.T) {
	deps, err := openHost("", false, "", testLogger())
	if err != nil {
		t.Fatal(err)
	}
	svc, examplePolicy, err := buildService(0.003, 9, svcLimits{workers: 4}, deps, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(examplePolicy, "mirrors:") || !strings.Contains(examplePolicy, "BEGIN PUBLIC KEY") {
		t.Fatalf("example policy:\n%s", examplePolicy)
	}
	srv := httptest.NewServer(tsr.Handler(svc))
	defer srv.Close()

	// The printed example policy works as-is against the server.
	resp, err := srv.Client().Post(srv.URL+"/policies", "application/yaml", strings.NewReader(examplePolicy))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy status = %d", resp.StatusCode)
	}
	var deployed struct {
		RepositoryID string `json:"repository_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&deployed); err != nil {
		t.Fatal(err)
	}
	resp2, err := srv.Client().Post(srv.URL+"/repos/"+deployed.RepositoryID+"/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("refresh status = %d", resp2.StatusCode)
	}
	resp3, err := srv.Client().Get(srv.URL + "/repos/" + deployed.RepositoryID + "/index")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", resp3.StatusCode)
	}
}

// TestAdmissionShedContract storms the exact middleware stack run()
// builds — obs.New(Options{MaxInflight}).Wrap(tsr.Handler(svc)) — and
// holds it to the chaos checker's serving invariants: every 200
// package response pairs its strong ETag with exactly the body it
// serves, every 429 carries a Retry-After hint, and the in-flight peak
// never exceeds the advertised -max-inflight bound. A small service-
// time floor under the gate (the same device the fleet soak's flash
// crowds use) makes the bursts genuinely overlap, so the gate has
// something to shed.
func TestAdmissionShedContract(t *testing.T) {
	deps, err := openHost("", false, "", testLogger())
	if err != nil {
		t.Fatal(err)
	}
	svc, examplePolicy, err := buildService(0.003, 9, svcLimits{workers: 4}, deps, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	api := tsr.Handler(svc)
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	rec := do("POST", "/policies", examplePolicy)
	if rec.Code != http.StatusOK {
		t.Fatalf("deploy status = %d: %s", rec.Code, rec.Body)
	}
	var deployed struct {
		RepositoryID string `json:"repository_id"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&deployed); err != nil {
		t.Fatal(err)
	}
	if rec := do("POST", "/repos/"+deployed.RepositoryID+"/refresh", ""); rec.Code != http.StatusOK {
		t.Fatalf("refresh status = %d", rec.Code)
	}
	rec = do("GET", "/repos/"+deployed.RepositoryID+"/index", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("index status = %d", rec.Code)
	}
	ix, err := index.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Entries) == 0 {
		t.Fatal("no packages to storm")
	}

	const maxInflight = 4
	gate := obs.New(obs.Options{MaxInflight: maxInflight})
	wrapped := gate.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond) // service-time floor: make bursts overlap
		api.ServeHTTP(w, r)
	}))

	checker := chaos.NewChecker(nil)
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for c := 0; c < 4*maxInflight; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				name := ix.Entries[c%len(ix.Entries)].Name
				rec := httptest.NewRecorder()
				wrapped.ServeHTTP(rec, httptest.NewRequest("GET",
					"/repos/"+deployed.RepositoryID+"/packages/"+name, nil))
				checker.HTTPResponse("tsrd", rec.Code,
					rec.Header().Get("ETag"), rec.Header().Get("Retry-After"), rec.Body.Bytes())
				switch rec.Code {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					t.Errorf("unexpected status %d for %s", rec.Code, name)
				}
			}(c)
		}
		wg.Wait()
	}

	snap := gate.Snapshot()
	checker.AdmissionSnapshot("tsrd", snap)
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	if served.Load() == 0 {
		t.Fatal("storm served nothing")
	}
	if shed.Load() == 0 || snap.ShedTotal == 0 {
		t.Fatalf("4x overload shed nothing (served=%d shed=%d snapshot=%d)",
			served.Load(), shed.Load(), snap.ShedTotal)
	}
	if snap.PeakInflight > maxInflight {
		t.Fatalf("peak inflight %d > bound %d", snap.PeakInflight, maxInflight)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-nope"}); err == nil {
		t.Fatal("want flag error")
	}
}

// TestRunShutsDownGracefully: a canceled context (the SIGINT/SIGTERM
// path) makes run drain the server and return nil instead of leaking
// the listener and the auto-refresh goroutine.
func TestRunShutsDownGracefully(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Seed 9 like the rest of the file: the default seed 1 draws a
		// workload whose race-instrumented build alone exceeds the 120s
		// deadline below, turning this into a build-speed test.
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-scale", "0.003", "-seed", "9", "-auto-refresh", "1h"})
	}()
	// Let the service build and the listener start, then deliver the
	// shutdown signal. (If cancel lands before ListenAndServe, Shutdown
	// still wins: the server refuses to start and run returns nil.)
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

// TestWireServingSmoke covers the wire-efficiency surface through the
// exact handler run() serves: gzip-negotiated index transfer that
// changes neither the canonical signed bytes nor the signature
// headers, the chunk-manifest endpoint rooted in the signed entry, and
// verified Range serving under the full representation's strong ETag
// (with If-None-Match taking precedence over Range).
func TestWireServingSmoke(t *testing.T) {
	deps, err := openHost("", false, "", testLogger())
	if err != nil {
		t.Fatal(err)
	}
	svc, examplePolicy, err := buildService(0.003, 9, svcLimits{workers: 4}, deps, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tsr.Handler(svc))
	defer srv.Close()
	// DisableCompression: assert on the raw wire form, not the
	// transport's transparently decoded one.
	raw := &http.Client{Transport: &http.Transport{DisableCompression: true}}

	resp, err := raw.Post(srv.URL+"/policies", "application/yaml", strings.NewReader(examplePolicy))
	if err != nil {
		t.Fatal(err)
	}
	var deployed struct {
		RepositoryID string `json:"repository_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&deployed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, err = raw.Post(srv.URL+"/repos/"+deployed.RepositoryID+"/refresh", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh status = %d", resp.StatusCode)
	}

	get := func(path string, hdr map[string]string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
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
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Gzip-negotiated index: same ETag and signature headers, smaller
	// wire body that decompresses to the identity (canonical) bytes.
	idResp, identity := get("/repos/"+deployed.RepositoryID+"/index", nil)
	gzResp, zipped := get("/repos/"+deployed.RepositoryID+"/index", map[string]string{"Accept-Encoding": "gzip"})
	if gzResp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", gzResp.Header.Get("Content-Encoding"))
	}
	if len(zipped) >= len(identity) {
		t.Fatalf("gzip index %d B >= identity %d B", len(zipped), len(identity))
	}
	for _, h := range []string{"ETag", "X-Tsr-Key-Name", "X-Tsr-Signature"} {
		if idResp.Header.Get(h) != gzResp.Header.Get(h) {
			t.Fatalf("%s differs between identity and gzip transfer", h)
		}
	}
	zr, err := gzip.NewReader(bytes.NewReader(zipped))
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unzipped, identity) {
		t.Fatal("gzip index does not decompress to the canonical signed bytes")
	}

	ix, err := index.Decode(identity)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Entries) == 0 {
		t.Fatal("empty index")
	}
	entry := ix.Entries[0]
	pkgPath := "/repos/" + deployed.RepositoryID + "/packages/" + entry.Name

	// Full representation: strong ETag == sha256 of the body.
	fullResp, full := get(pkgPath, nil)
	if fullResp.StatusCode != http.StatusOK {
		t.Fatalf("package status = %d", fullResp.StatusCode)
	}
	sum := sha256.Sum256(full)
	etag := fullResp.Header.Get("ETag")
	if want := `"` + hex.EncodeToString(sum[:]) + `"`; etag != want {
		t.Fatalf("ETag = %s, body hashes to %s", etag, want)
	}

	// Chunk manifest: rooted in the signed entry.
	mResp, mBody := get(pkgPath+"/chunks", nil)
	if mResp.StatusCode != http.StatusOK {
		t.Fatalf("chunks status = %d", mResp.StatusCode)
	}
	if mResp.Header.Get("ETag") != etag {
		t.Fatalf("manifest ETag %s != package ETag %s", mResp.Header.Get("ETag"), etag)
	}
	name, m, err := tsr.DecodeChunkManifest(mBody)
	if err != nil {
		t.Fatal(err)
	}
	if name != entry.Name || m.PackageHash != entry.Hash || m.TotalSize != entry.Size || len(m.Chunks) == 0 {
		t.Fatalf("manifest not rooted in signed entry: name=%q chunks=%d", name, len(m.Chunks))
	}

	// Range over verified bytes: 206 carries the FULL representation's
	// ETag and exactly the requested slice.
	end := int64(len(full))/2 + 1
	rResp, part := get(pkgPath, map[string]string{
		"Range":    fmt.Sprintf("bytes=2-%d", end),
		"If-Range": etag,
	})
	if rResp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range status = %d, want 206", rResp.StatusCode)
	}
	if rResp.Header.Get("ETag") != etag {
		t.Fatalf("206 ETag = %s, want full representation's %s", rResp.Header.Get("ETag"), etag)
	}
	if want := fmt.Sprintf("bytes 2-%d/%d", end, len(full)); rResp.Header.Get("Content-Range") != want {
		t.Fatalf("Content-Range = %q, want %q", rResp.Header.Get("Content-Range"), want)
	}
	if !bytes.Equal(part, full[2:end+1]) {
		t.Fatal("206 body is not the requested slice of the full representation")
	}

	// If-None-Match takes precedence over Range: revalidation wins.
	nmResp, _ := get(pkgPath, map[string]string{"Range": "bytes=0-9", "If-None-Match": etag})
	if nmResp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match + Range status = %d, want 304", nmResp.StatusCode)
	}
}

// TestWarmRestartSmoke is the build-and-restart smoke CI runs: bring up
// the full daemon stack on a data dir, deploy + refresh, "kill" it,
// bring up a second instance over the same dir, and assert the index
// is served from the warm snapshot without any re-sanitization.
func TestWarmRestartSmoke(t *testing.T) {
	tmp := t.TempDir()
	dataDir := tmp + "/data"
	boot := func() (*tsr.Service, func() []byte) {
		deps, err := openHost(dataDir, false, "", testLogger())
		if err != nil {
			t.Fatal(err)
		}
		svc, examplePolicy, err := buildService(0.003, 9, svcLimits{workers: 4}, deps, testLogger())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RestoreAll(); err != nil {
			t.Fatal(err)
		}
		return svc, func() []byte { return []byte(examplePolicy) }
	}

	// First life: deploy, refresh, record what clients see.
	svc1, policy1 := boot()
	srv1 := httptest.NewServer(tsr.Handler(svc1))
	resp, err := srv1.Client().Post(srv1.URL+"/policies", "application/yaml", strings.NewReader(string(policy1())))
	if err != nil {
		t.Fatal(err)
	}
	var deployed struct {
		RepositoryID string `json:"repository_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&deployed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if deployed.RepositoryID == "" {
		t.Fatal("no repository id")
	}
	resp, err = srv1.Client().Post(srv1.URL+"/repos/"+deployed.RepositoryID+"/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh status = %d", resp.StatusCode)
	}
	resp, err = srv1.Client().Get(srv1.URL + "/repos/" + deployed.RepositoryID + "/index")
	if err != nil {
		t.Fatal(err)
	}
	wantETag := resp.Header.Get("ETag")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || wantETag == "" {
		t.Fatalf("index status = %d etag = %q", resp.StatusCode, wantETag)
	}
	srv1.Close() // "kill" the daemon

	// Second life: same data dir, fresh process state.
	svc2, _ := boot()
	srv2 := httptest.NewServer(tsr.Handler(svc2))
	defer srv2.Close()
	resp, err = srv2.Client().Get(srv2.URL + "/repos/" + deployed.RepositoryID + "/index")
	if err != nil {
		t.Fatal(err)
	}
	gotETag := resp.Header.Get("ETag")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted index status = %d (repository not restored?)", resp.StatusCode)
	}
	if gotETag != wantETag {
		t.Fatalf("restarted index etag = %s, want %s", gotETag, wantETag)
	}
	// Warm: the restarted service sanitized nothing to serve that.
	resp, err = srv2.Client().Get(srv2.URL + "/repos/" + deployed.RepositoryID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Sanitized int64 `json:"sanitized"`
		CacheHits int64 `json:"cache_hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Sanitized != 0 {
		t.Fatalf("restart sanitized %d packages, want 0 (warm)", stats.Sanitized)
	}
	// And the first refresh after restart is all sancache hits.
	resp, err = srv2.Client().Post(srv2.URL+"/repos/"+deployed.RepositoryID+"/refresh", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rstats struct {
		Sanitized int `json:"sanitized"`
		CacheHits int `json:"cache_hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rstats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rstats.Sanitized != 0 || rstats.CacheHits == 0 {
		t.Fatalf("post-restart refresh sanitized=%d cacheHits=%d, want all cache hits", rstats.Sanitized, rstats.CacheHits)
	}
}
