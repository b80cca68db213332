package edge

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/netsim"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// bigEdgePkg builds a package large enough to span many chunks, with
// incompressible (seeded-random) content. Only the last-sorted file's
// content depends on the version, so a version bump changes a suffix of
// the apk data stream and chunking can reuse the shared prefix.
func bigEdgePkg(name, version string, nFiles, fileSize int) *apk.Package {
	p := &apk.Package{Name: name, Version: version}
	for i := 0; i < nFiles; i++ {
		seed := int64(i + 1)
		path := fmt.Sprintf("/usr/share/%s/%03d.bin", name, i)
		if i == nFiles-1 {
			path = "/usr/share/" + name + "/zz-last.bin"
			for _, c := range version {
				seed = seed*131 + int64(c)
			}
		}
		content := make([]byte, fileSize)
		rand.New(rand.NewSource(seed)).Read(content)
		p.Files = append(p.Files, apk.File{Path: path, Mode: 0o644, Content: content})
	}
	return p
}

func entryOf(t *testing.T, rep *Replica, name string) index.Entry {
	t.Helper()
	signed, _, err := rep.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ix.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// diffHeadBytes bounds what a one-file differential pull fetches
// besides the bumped file's run: the re-signed signature and control
// members, and each member's final block and CRC trailer, which the
// cutter keeps in pieces of their own (store.CutChunks).
const diffHeadBytes = 4 << 10

// bumpBound is the most a differential pull of raw may fetch when only
// the file at path changed: that file's deflate run plus diffHeadBytes.
// The run's size is what the file, as served (IMA signature included),
// adds to an encoded package; the file must hold at least 32 KiB, so
// that it closes a run by itself.
func bumpBound(t *testing.T, raw []byte, path string) int64 {
	t.Helper()
	p, err := apk.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	size := func(files ...apk.File) int64 {
		enc, err := apk.Encode(&apk.Package{Name: "run", Version: "1.0-r0", Files: files})
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(enc))
	}
	for _, f := range p.Files {
		if f.Path == path {
			return size(f) - size() + diffHeadBytes
		}
	}
	t.Fatalf("package holds no %s", path)
	return 0
}

// TestReplicaDifferentialPull: after a one-file version bump, the
// replica's pull-through fetch is exactly one differential pull that
// moves only the changed chunks from the origin — the bumped file's run
// and the re-signed head, whatever the tenant key — reusing the cached
// previous generation as the diff base, and the reassembled bytes still
// verify against the signed index entry.
func TestReplicaDifferentialPull(t *testing.T) {
	w := newEdgeWorld(t)
	w.publish(t, bigEdgePkg("bigapp", "1.0-r0", 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Cold pull: a full origin fetch, no diff base yet.
	cold, err := rep.FetchPackageCtx(context.Background(), "bigapp")
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.OriginPackages != 1 || s.DiffPulls != 0 {
		t.Fatalf("after cold pull: %+v", s)
	}

	// Version bump, delta sync, warm pull: differential.
	w.publish(t, bigEdgePkg("bigapp", "2.0-r0", 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	entry := entryOf(t, rep, "bigapp")
	warm, err := rep.FetchPackageCtx(context.Background(), "bigapp")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(warm)) != entry.Size || sha256.Sum256(warm) != entry.Hash {
		t.Fatal("differentially pulled bytes do not match the signed entry")
	}
	if bytes.Equal(warm, cold) {
		t.Fatal("version bump did not change the package bytes")
	}
	s := rep.Stats()
	if s.DiffPulls != 1 {
		t.Fatalf("DiffPulls = %d, want 1 (stats %+v)", s.DiffPulls, s)
	}
	if s.DiffBytesReused == 0 {
		t.Fatal("differential pull reused no chunks")
	}
	bound := bumpBound(t, warm, "/usr/share/bigapp/zz-last.bin")
	t.Logf("differential pull moved %d of %d bytes (bound %d)", s.DiffBytesFetched, entry.Size, bound)
	if s.DiffBytesFetched > bound {
		t.Fatalf("differential pull moved %d of %d bytes; want <= %d (the bumped file's run + %d)", s.DiffBytesFetched, entry.Size, bound, diffHeadBytes)
	}
}

// textEdgePkg is 32 files of fileSize bytes of compressible text; only
// file bumped's text depends on the version.
func textEdgePkg(name, version string, bumped, fileSize int) *apk.Package {
	words := []string{"package", "signature", "enclave", "mirror", "index", "refresh", "update", "the", "of", "a"}
	p := &apk.Package{Name: name, Version: version}
	for i := 0; i < 32; i++ {
		seed := int64(i + 1)
		if i == bumped {
			for _, c := range version {
				seed = seed*131 + int64(c)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var b []byte
		for len(b) < fileSize {
			b = append(append(b, words[rng.Intn(len(words))]...), " \n"[rng.Intn(2)])
		}
		p.Files = append(p.Files, apk.File{Path: fmt.Sprintf("/usr/share/%s/%03d.txt", name, i), Mode: 0o644, Content: b[:fileSize]})
	}
	return p
}

// TestReplicaDifferentialPullMiddleFile: a bump of the first or of a
// middle file of a compressible package moves that file's run and the
// re-signed head, nothing more. Each file is its own deflate run, so
// the compressed bytes after the changed file are the previous
// generation's, and the cutter ends a chunk at every run end, so
// chunking reuses them whatever the tenant key; in one deflate stream
// everything after the first changed byte differed.
func TestReplicaDifferentialPullMiddleFile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bumped int
	}{{"first", 0}, {"middle", 16}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newEdgeWorld(t)
			w.publish(t, textEdgePkg("textapp", "1.0-r0", tc.bumped, 128<<10))
			if _, err := w.tenant.Refresh(); err != nil {
				t.Fatal(err)
			}
			rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
			if err := rep.SyncCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, err := rep.FetchPackageCtx(context.Background(), "textapp"); err != nil {
				t.Fatal(err)
			}

			w.publish(t, textEdgePkg("textapp", "2.0-r0", tc.bumped, 128<<10))
			if _, err := w.tenant.Refresh(); err != nil {
				t.Fatal(err)
			}
			if err := rep.SyncCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			entry := entryOf(t, rep, "textapp")
			warm, err := rep.FetchPackageCtx(context.Background(), "textapp")
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(warm)) != entry.Size || sha256.Sum256(warm) != entry.Hash {
				t.Fatal("differentially pulled bytes do not match the signed entry")
			}
			s := rep.Stats()
			if s.DiffPulls != 1 {
				t.Fatalf("DiffPulls = %d, want 1 (stats %+v)", s.DiffPulls, s)
			}
			path := fmt.Sprintf("/usr/share/textapp/%03d.txt", tc.bumped)
			bound := bumpBound(t, warm, path)
			t.Logf("differential pull moved %d of %d bytes (bound %d)", s.DiffBytesFetched, entry.Size, bound)
			if s.DiffBytesFetched > bound {
				t.Fatalf("differential pull moved %d of %d bytes; want <= %d (the bumped file's run + %d)", s.DiffBytesFetched, entry.Size, bound, diffHeadBytes)
			}
		})
	}
}

// TestChainedEdgeDifferentialPull: an edge behind an edge diffs the
// same way — the mid replica exposes the manifest/range surface, so the
// leaf's version-bump pull transfers only changed chunks through the
// whole chain.
func TestChainedEdgeDifferentialPull(t *testing.T) {
	w := newEdgeWorld(t)
	w.publish(t, bigEdgePkg("bigapp", "1.0-r0", 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	mid := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	leaf := &Replica{RepoID: w.tenant.ID, Origin: mid, TrustRing: w.trust()}
	for _, rep := range []*Replica{mid, leaf} {
		if err := rep.SyncCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := leaf.FetchPackageCtx(context.Background(), "bigapp"); err != nil {
		t.Fatal(err)
	}

	w.publish(t, bigEdgePkg("bigapp", "2.0-r0", 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*Replica{mid, leaf} {
		if err := rep.SyncCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	entry := entryOf(t, leaf, "bigapp")
	raw, err := leaf.FetchPackageCtx(context.Background(), "bigapp")
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(raw) != entry.Hash {
		t.Fatal("leaf served bytes that do not match the signed entry")
	}
	if s := leaf.Stats(); s.DiffPulls != 1 || s.DiffBytesReused == 0 {
		t.Fatalf("leaf did not pull differentially through the chain: %+v", s)
	}
	if s := mid.Stats(); s.DiffPulls != 1 {
		t.Fatalf("mid did not pull differentially from the origin: %+v", s)
	}
	bound := bumpBound(t, raw, "/usr/share/bigapp/zz-last.bin")
	for name, rep := range map[string]*Replica{"leaf": leaf, "mid": mid} {
		got := rep.Stats().DiffBytesFetched
		t.Logf("%s moved %d of %d bytes (bound %d)", name, got, entry.Size, bound)
		if got > bound {
			t.Fatalf("%s moved %d of %d bytes; want <= %d (the bumped file's run + %d)", name, got, entry.Size, bound, diffHeadBytes)
		}
	}
}

// TestFailoverClientDifferentialFetch: with a PkgCache, the failover
// client short-circuits repeat fetches from the verified cache and
// pulls version bumps differentially from whichever endpoint serves it.
func TestFailoverClientDifferentialFetch(t *testing.T) {
	w := newEdgeWorld(t)
	w.publish(t, bigEdgePkg("bigapp", "1.0-r0", 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.Europe, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := newClient(w, Endpoint{Name: "edge-eu", Continent: netsim.Europe, Fetcher: rep})
	c.PkgCache = store.NewMem()

	cold, err := c.FetchPackage("bigapp")
	if err != nil {
		t.Fatal(err)
	}
	// Repeat fetch: served from the verified local cache, zero network.
	again, err := c.FetchPackage("bigapp")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, cold) {
		t.Fatal("cache hit returned different bytes")
	}
	if s := c.Stats(); s.CacheHits != 1 || s.DiffFetches != 0 {
		t.Fatalf("after cache hit: %+v", s)
	}

	w.publish(t, bigEdgePkg("bigapp", "2.0-r0", 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchIndex(); err != nil {
		t.Fatal(err)
	}
	warm, err := c.FetchPackage("bigapp")
	if err != nil {
		t.Fatal(err)
	}
	entry := entryOf(t, rep, "bigapp")
	if int64(len(warm)) != entry.Size || sha256.Sum256(warm) != entry.Hash {
		t.Fatal("differential fetch returned bytes that do not match the signed entry")
	}
	if s := c.Stats(); s.DiffFetches != 1 || s.DiffFallbacks != 0 {
		t.Fatalf("version bump did not fetch differentially: %+v", s)
	}
}

// TestFailoverClientDiffTamperedManifestFallsBack: a chunk manifest
// that does not root in the accepted entry is rejected, and the client
// degrades to a full fetch from the same endpoint — wrong bytes are
// never returned.
func TestFailoverClientDiffTamperedManifestFallsBack(t *testing.T) {
	w := newEdgeWorld(t)
	w.publish(t, bigEdgePkg("bigapp", "1.0-r0", 8, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	inner := tsr.Handler(w.svc)
	// A corrupting middlebox: chunk-manifest responses get their
	// package hash zeroed; everything else passes through.
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if !strings.HasSuffix(req.URL.Path, "/chunks") {
			inner.ServeHTTP(rw, req)
			return
		}
		req.Header.Del("Accept-Encoding") // keep the recorded body identity-coded
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, req)
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			rw.WriteHeader(rec.Code)
			rw.Write(rec.Body.Bytes())
			return
		}
		doc["hash"] = strings.Repeat("00", 32)
		tampered, _ := json.Marshal(doc)
		rw.Header().Set("Content-Type", "application/json")
		rw.Write(tampered)
	}))
	defer srv.Close()
	origin := &tsr.Client{BaseURL: srv.URL, RepoID: w.tenant.ID, HTTPClient: srv.Client()}
	c := newClient(w, Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: origin})
	c.PkgCache = store.NewMem()

	if _, err := c.FetchPackage("bigapp"); err != nil {
		t.Fatal(err)
	}
	w.publish(t, bigEdgePkg("bigapp", "1.1-r0", 8, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchIndex(); err != nil {
		t.Fatal(err)
	}
	v2, err := c.FetchPackage("bigapp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.tenant.FetchPackage("bigapp")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2, want) {
		t.Fatal("client returned bytes that do not match the served package")
	}
	if s := c.Stats(); s.DiffFallbacks != 1 || s.DiffFetches != 0 {
		t.Fatalf("stats = %+v, want the diff rejected and one fallback", s)
	}
	if ws := origin.WireStats(); ws.FullFetches != 2 {
		t.Fatalf("full fetches = %d, want 2 (cold + fallback)", ws.FullFetches)
	}
}

// --- handler wire parity with the origin -------------------------------

func edgeServer(t *testing.T, rep *Replica) (*httptest.Server, *http.Client) {
	t.Helper()
	srv := httptest.NewServer(Handler(map[string]*Replica{"r": rep}, "wire-edge"))
	t.Cleanup(srv.Close)
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	return srv, client
}

func get(t *testing.T, client *http.Client, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func body(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEdgeIndexGzipIsTransferEncodingOnly: the edge negotiates gzip on
// the index exactly like the origin — signature headers and ETag are
// those of the canonical signed text, and the gzip body decompresses to
// it byte-for-byte.
func TestEdgeIndexGzipIsTransferEncodingOnly(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	signed, _, err := rep.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv, client := edgeServer(t, rep)

	plain := get(t, client, srv.URL+"/repos/r/index", nil)
	zipped := get(t, client, srv.URL+"/repos/r/index", map[string]string{"Accept-Encoding": "gzip"})
	plainBody := body(t, plain)
	zippedBody := body(t, zipped)

	for _, h := range []string{"ETag", "X-Tsr-Key-Name", "X-Tsr-Signature"} {
		if plain.Header.Get(h) != zipped.Header.Get(h) {
			t.Fatalf("%s differs between identity and gzip responses", h)
		}
	}
	if !bytes.Equal(plainBody, signed.Raw) {
		t.Fatal("identity body is not the canonical signed text")
	}
	if zipped.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", zipped.Header.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(bytes.NewReader(zippedBody))
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unzipped, signed.Raw) {
		t.Fatal("gzip body does not decompress to the canonical signed text")
	}
	if len(zippedBody) >= len(plainBody) {
		t.Fatalf("gzip body (%d) not smaller than identity (%d)", len(zippedBody), len(plainBody))
	}
}

// TestEdgeChunksEndpointAndRange exercises the edge's differential
// serving surface over HTTP: the chunk manifest roots in the signed
// entry, 304 revalidation works, and Range requests produce 206s that
// carry the full representation's strong ETag.
func TestEdgeChunksEndpointAndRange(t *testing.T) {
	w := newEdgeWorld(t)
	w.publish(t, bigEdgePkg("bigapp", "1.0-r0", 8, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	entry := entryOf(t, rep, "bigapp")
	etag := entry.ETag()
	srv, client := edgeServer(t, rep)

	resp := get(t, client, srv.URL+"/repos/r/packages/bigapp/chunks", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunks: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("chunks ETag = %s, want the package entry's %s", got, etag)
	}
	name, m, err := tsr.DecodeChunkManifest(body(t, resp))
	if err != nil {
		t.Fatal(err)
	}
	if name != "bigapp" {
		t.Fatalf("manifest names %q", name)
	}
	if m.PackageHash != entry.Hash || m.TotalSize != entry.Size {
		t.Fatal("manifest root does not match the signed entry")
	}

	// Revalidation.
	resp = get(t, client, srv.URL+"/repos/r/packages/bigapp/chunks", map[string]string{"If-None-Match": etag})
	body(t, resp)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("chunks revalidation: HTTP %d, want 304", resp.StatusCode)
	}

	// If-None-Match precedence over Range on the package itself.
	resp = get(t, client, srv.URL+"/repos/r/packages/bigapp", map[string]string{
		"If-None-Match": etag, "Range": "bytes=0-99",
	})
	body(t, resp)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match + Range: HTTP %d, want 304", resp.StatusCode)
	}

	// A plain Range request slices verified bytes under the full ETag.
	full, err := rep.FetchPackageCtx(context.Background(), "bigapp")
	if err != nil {
		t.Fatal(err)
	}
	resp = get(t, client, srv.URL+"/repos/r/packages/bigapp", map[string]string{"Range": "bytes=100-299"})
	part := body(t, resp)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("Range: HTTP %d, want 206", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes 100-299/%d", entry.Size); got != want {
		t.Fatalf("Content-Range = %q, want %q", got, want)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("206 ETag = %s, want the full representation's %s", got, etag)
	}
	if !bytes.Equal(part, full[100:300]) {
		t.Fatal("206 body is not the requested slice of the verified bytes")
	}
}

// TestEdgeStreamedServe: a warm full-body GET streams off the cache
// through hash-as-you-copy verification instead of buffering, and the
// delivered bytes hash to the advertised ETag.
func TestEdgeStreamedServe(t *testing.T) {
	w := newEdgeWorld(t)
	w.publish(t, bigEdgePkg("bigapp", "1.0-r0", 8, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Warm the cache.
	if _, err := rep.FetchPackageCtx(context.Background(), "bigapp"); err != nil {
		t.Fatal(err)
	}
	srv, client := edgeServer(t, rep)

	resp := get(t, client, srv.URL+"/repos/r/packages/bigapp", nil)
	raw := body(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	sum := sha256.Sum256(raw)
	if got, want := resp.Header.Get("ETag"), `"`+hex.EncodeToString(sum[:])+`"`; got != want {
		t.Fatalf("ETag %s does not match the streamed body hash %s", got, want)
	}
	if s := rep.Stats(); s.StreamedServes != 1 {
		t.Fatalf("StreamedServes = %d, want 1 (stats %+v)", s.StreamedServes, s)
	}
}

// TestCorruptReplicaRefusesManifest: a misbehaving replica would build
// its manifest over corrupted bytes; the replica refuses to serve such
// a manifest (it would only mislead downstreams into useless range
// fetches), so downstream diff attempts fall back to a full fetch —
// which end-to-end verification then rejects.
func TestCorruptReplicaRefusesManifest(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep.SetBehavior(Corrupt)
	if _, err := rep.FetchChunkManifestCtx(context.Background(), "app"); err == nil {
		t.Fatal("corrupt replica served a chunk manifest over corrupted bytes")
	}
	srv, client := edgeServer(t, rep)
	resp := get(t, client, srv.URL+"/repos/r/packages/app/chunks", nil)
	body(t, resp)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("chunks from a corrupt replica: HTTP %d, want 502", resp.StatusCode)
	}
}
