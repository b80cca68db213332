package tsr

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/store"
)

// bigPackage builds a package large enough to span many content-defined
// chunks: nFiles incompressible (seeded-random) payloads. Only the
// LAST-sorted file's content depends on version, so a version bump
// changes a small suffix of the sanitized wire bytes and the rest of
// the chunks are reusable by a differential fetch.
func bigPackage(name, version string, nFiles, fileSize int) *apk.Package {
	p := &apk.Package{Name: name, Version: version}
	for i := 0; i < nFiles; i++ {
		seed := int64(i + 1)
		path := fmt.Sprintf("/usr/share/%s/%03d.bin", name, i)
		if i == nFiles-1 {
			// Sorts after the numbered files; content tied to version.
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

// rawRequest performs a GET with explicit headers, bypassing the
// transport's transparent gzip so tests see the wire form.
func rawRequest(t *testing.T, client *http.Client, url string, hdr map[string]string) *http.Response {
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

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestIndexGzipIsTransferEncodingOnly: the negotiated gzip response
// must decompress to the exact canonical signed text, under the exact
// same ETag and signature headers as the identity response — gzip is
// transfer encoding after signing, not a second representation. Over
// an index of a few dozen packages it must also pay: at most half the
// identity bytes.
func TestIndexGzipIsTransferEncodingOnly(t *testing.T) {
	w := newWorld(t, 3)
	var pkgs []*apk.Package
	for i := 0; i < 32; i++ {
		pkgs = append(pkgs, pkgWithScript(fmt.Sprintf("pkg-%02d", i), "1.0-r0", ""))
	}
	w.publish(t, pkgs...)
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	signed, _, err := r.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	url := srv.URL + "/repos/" + r.ID + "/index"
	idResp := rawRequest(t, srv.Client(), url, map[string]string{"Accept-Encoding": "identity"})
	idBody := readAll(t, idResp)
	if idResp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity response Content-Encoding = %q", idResp.Header.Get("Content-Encoding"))
	}
	if !bytes.Equal(idBody, signed.Raw) {
		t.Fatal("identity index body is not the canonical signed text")
	}

	gzResp := rawRequest(t, srv.Client(), url, map[string]string{"Accept-Encoding": "gzip"})
	gzBody := readAll(t, gzResp)
	if ce := gzResp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	if !strings.Contains(gzResp.Header.Get("Vary"), "Accept-Encoding") {
		t.Fatalf("Vary = %q", gzResp.Header.Get("Vary"))
	}
	if 2*len(gzBody) > len(idBody) {
		t.Fatalf("gzip body %d bytes, identity %d: want <= 0.5x", len(gzBody), len(idBody))
	}
	// Signatures and ETags are computed over the canonical text: both
	// responses must carry identical validators.
	for _, h := range []string{"ETag", headerKeyName, headerSignature} {
		if idResp.Header.Get(h) != gzResp.Header.Get(h) {
			t.Fatalf("%s differs between identity (%q) and gzip (%q)", h, idResp.Header.Get(h), gzResp.Header.Get(h))
		}
	}
	zr, err := gzip.NewReader(bytes.NewReader(gzBody))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, signed.Raw) {
		t.Fatal("gzip index does not decompress to the exact signed canonical form")
	}
}

// TestIndexDeltaGzip: the delta endpoint negotiates gzip the same way.
func TestIndexDeltaGzip(t *testing.T) {
	w, r := refreshedWorld(t)
	_, baseTag, err := r.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	advance(t, w, r, "app", "1.1-r0")
	d, err := r.FetchIndexDeltaCtx(context.Background(), baseTag)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	url := srv.URL + "/repos/" + r.ID + "/index/delta?since=" + strings.ReplaceAll(baseTag, `"`, "%22")
	resp := rawRequest(t, srv.Client(), url, map[string]string{"Accept-Encoding": "gzip"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var plain []byte
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if plain, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	} else {
		// A delta too small to shrink under gzip is served identity.
		plain = body
	}
	if !bytes.Equal(plain, d.Encode()) {
		t.Fatal("delta body does not match the canonical delta encoding")
	}
}

// TestIfNoneMatchPrecedesRange: RFC 9110 — when both If-None-Match and
// Range are present, the conditional wins: a revalidating client gets
// its 304, never a 206 of bytes it already holds.
func TestIfNoneMatchPrecedesRange(t *testing.T) {
	w, r := refreshedWorld(t)
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	etag, err := r.PackageETag("app")
	if err != nil {
		t.Fatal(err)
	}
	resp := rawRequest(t, srv.Client(), srv.URL+"/repos/"+r.ID+"/packages/app", map[string]string{
		"If-None-Match": etag,
		"Range":         "bytes=0-9",
	})
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %d, want 304 (If-None-Match takes precedence over Range)", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag = %q, want %q", got, etag)
	}
}

// TestPackageRangeServing covers the 206 surface: correct slice and
// Content-Range, the FULL representation's strong ETag on partial
// responses, suffix ranges, open-ended ranges, 416 for unsatisfiable,
// and full-200 fallbacks for If-Range mismatch, multi-range, and
// malformed headers.
func TestPackageRangeServing(t *testing.T) {
	w, r := refreshedWorld(t)
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	url := srv.URL + "/repos/" + r.ID + "/packages/app"

	full := readAll(t, rawRequest(t, srv.Client(), url, nil))
	etag, err := r.PackageETag("app")
	if err != nil {
		t.Fatal(err)
	}
	size := len(full)
	if fmt.Sprintf("%q", sha256.Sum256(full)) == "" {
		t.Fatal("unreachable")
	}

	cases := []struct {
		name       string
		hdr        map[string]string
		status     int
		wantBody   []byte
		wantCRange string
	}{
		{"closed range", map[string]string{"Range": "bytes=10-49"},
			206, full[10:50], fmt.Sprintf("bytes 10-49/%d", size)},
		{"open-ended", map[string]string{"Range": fmt.Sprintf("bytes=%d-", size-20)},
			206, full[size-20:], fmt.Sprintf("bytes %d-%d/%d", size-20, size-1, size)},
		{"suffix", map[string]string{"Range": "bytes=-25"},
			206, full[size-25:], fmt.Sprintf("bytes %d-%d/%d", size-25, size-1, size)},
		{"end clipped", map[string]string{"Range": fmt.Sprintf("bytes=5-%d", size+1000)},
			206, full[5:], fmt.Sprintf("bytes 5-%d/%d", size-1, size)},
		{"unsatisfiable", map[string]string{"Range": fmt.Sprintf("bytes=%d-", size)},
			416, nil, fmt.Sprintf("bytes */%d", size)},
		{"if-range match", map[string]string{"Range": "bytes=0-9", "If-Range": etag},
			206, full[:10], fmt.Sprintf("bytes 0-9/%d", size)},
		{"if-range mismatch", map[string]string{"Range": "bytes=0-9", "If-Range": `"stale"`},
			200, full, ""},
		{"multi-range ignored", map[string]string{"Range": "bytes=0-9,20-29"},
			200, full, ""},
		{"malformed ignored", map[string]string{"Range": "bytes=abc-def"},
			200, full, ""},
		{"non-bytes unit ignored", map[string]string{"Range": "chunks=0-1"},
			200, full, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := rawRequest(t, srv.Client(), url, tc.hdr)
			body := readAll(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.wantCRange != "" {
				if got := resp.Header.Get("Content-Range"); got != tc.wantCRange {
					t.Fatalf("Content-Range = %q, want %q", got, tc.wantCRange)
				}
			}
			if tc.status == 206 {
				// The ETag on a 206 is the full representation's strong
				// tag — the content hash from the signed index.
				if got := resp.Header.Get("ETag"); got != etag {
					t.Fatalf("206 ETag = %q, want full-body tag %q", got, etag)
				}
			}
			if tc.wantBody != nil && !bytes.Equal(body, tc.wantBody) {
				t.Fatalf("body = %d bytes, want %d (mismatch)", len(body), len(tc.wantBody))
			}
		})
	}
}

// parseRangeCases is TestParseRange's table; FuzzParseRange seeds its
// corpus from it.
var parseRangeCases = []struct {
	header      string
	size        int64
	off, length int64
	ok          bool
	unsat       bool
}{
	{"bytes=0-9", 100, 0, 10, true, false},
	{"bytes=90-", 100, 90, 10, true, false},
	{"bytes=-10", 100, 90, 10, true, false},
	{"bytes=-200", 100, 0, 100, true, false}, // suffix longer than body: whole body
	{"bytes=0-0", 100, 0, 1, true, false},
	{"bytes=50-200", 100, 50, 50, true, false}, // end clipped
	{"bytes=100-", 100, 0, 0, false, true},
	{"bytes=-0", 100, 0, 0, false, true},
	{"bytes=-5", 0, 0, 0, false, true},
	{"bytes=0-9,20-29", 100, 0, 0, false, false}, // multi-range: ignore
	{"bytes=9-0", 100, 0, 0, false, false},
	{"bytes=abc", 100, 0, 0, false, false},
	{"chunks=0-9", 100, 0, 0, false, false},
	{"", 100, 0, 0, false, false},
}

// TestParseRange pins the header parser's edge cases directly.
func TestParseRange(t *testing.T) {
	for _, tc := range parseRangeCases {
		off, length, ok, err := ParseRange(tc.header, tc.size)
		if tc.unsat {
			if err == nil {
				t.Errorf("%q: err = nil, want ErrUnsatisfiable", tc.header)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: err = %v", tc.header, err)
			continue
		}
		if ok != tc.ok || (ok && (off != tc.off || length != tc.length)) {
			t.Errorf("%q: (%d,%d,%v), want (%d,%d,%v)", tc.header, off, length, ok, tc.off, tc.length, tc.ok)
		}
	}
}

// TestChunkManifestEndpoint: the manifest decodes, tiles the package
// exactly, is rooted in the signed entry (PackageHash, per-chunk
// hashes), and revalidates under the package's strong ETag.
func TestChunkManifestEndpoint(t *testing.T) {
	w, r := refreshedWorld(t)
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	url := srv.URL + "/repos/" + r.ID + "/packages/app/chunks"

	body, _, err := r.FetchPackageTracedCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	resp := rawRequest(t, srv.Client(), url, nil)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	name, m, err := DecodeChunkManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if name != "app" {
		t.Fatalf("manifest package = %q", name)
	}
	if m.PackageHash != sha256.Sum256(body) || m.TotalSize != int64(len(body)) {
		t.Fatal("manifest is not rooted in the served package bytes")
	}
	for i, ch := range m.Chunks {
		if got := sha256.Sum256(body[ch.Offset : ch.Offset+ch.Size]); got != ch.Hash {
			t.Fatalf("chunk %d hash mismatch", i)
		}
	}

	etag := resp.Header.Get("ETag")
	pkgTag, err := r.PackageETag("app")
	if err != nil {
		t.Fatal(err)
	}
	if etag != pkgTag {
		t.Fatalf("manifest ETag = %q, want the package's %q", etag, pkgTag)
	}
	resp304 := rawRequest(t, srv.Client(), url, map[string]string{"If-None-Match": etag})
	readAll(t, resp304)
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", resp304.StatusCode)
	}
}

// TestChunkManifestWireConcurrent: concurrent requests for one
// manifest, identity and gzip, all get the same stored wire form (run
// under -race, it checks the stored blob is served safely).
func TestChunkManifestWireConcurrent(t *testing.T) {
	w, r := refreshedWorld(t)
	h := Handler(w.svc)
	m, err := r.FetchChunkManifestCtx(context.Background(), "app")
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeChunkManifest("app", m)
	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/repos/"+r.ID+"/packages/app/chunks", nil)
			if i%2 == 1 {
				req.Header.Set("Accept-Encoding", "gzip")
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("client %d: status %d", i, rec.Code)
				return
			}
			body := rec.Body.Bytes()
			if rec.Header().Get("Content-Encoding") == "gzip" {
				zr, err := gzip.NewReader(bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				if body, err = io.ReadAll(zr); err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
			}
			bodies[i] = body
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("client %d: manifest body differs from EncodeChunkManifest", i)
		}
	}
}

// TestStreamedServeTamperAbortsAndHeals: a tampered sanitized-cache
// entry under the streaming serve path must abort the response before
// the body completes — the client sees a truncated transfer, never a
// complete-but-wrong body — and the poisoned entry is dropped so the
// next request serves verified bytes again.
func TestStreamedServeTamperAbortsAndHeals(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, bigPackage("blob", "1.0-r0", 8, 32<<10))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	url := srv.URL + "/repos/" + r.ID + "/packages/blob"

	r.mu.Lock()
	entry, err := r.local.Lookup("blob")
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.store.Tamper(r.sanitizedKey("blob", entry.Hash)); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(url)
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && int64(len(body)) == entry.Size {
			t.Fatal("tampered stream delivered a complete body")
		}
	}

	// Self-heal: the poisoned cache key was dropped on the failed
	// stream, so this request re-sanitizes and serves verified bytes.
	resp2, err := srv.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status after heal = %d", resp2.StatusCode)
	}
	if int64(len(body)) != entry.Size || sha256.Sum256(body) != entry.Hash {
		t.Fatal("healed response does not match the signed index entry")
	}
}

// TestStreamedServeCounts: the buffered-free serve path is actually
// taken (store.Mem streams) and verified bytes arrive
// intact with a correct Content-Length.
func TestStreamedServeCounts(t *testing.T) {
	w, r := refreshedWorld(t)
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	before := r.CacheStats().StreamedServes
	resp := rawRequest(t, srv.Client(), srv.URL+"/repos/"+r.ID+"/packages/app", nil)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	etag, err := r.PackageETag("app")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%q", fmt.Sprintf("%x", sha256.Sum256(body))); got != etag {
		t.Fatalf("body hash %s != ETag %s", got, etag)
	}
	if after := r.CacheStats().StreamedServes; after != before+1 {
		t.Fatalf("streamed serves %d -> %d, want +1", before, after)
	}
}

// TestVerifiedReader: bytes come out intact through Read and through
// WriteTo at every size around the block boundary, although the reader
// reuses two blocks; a stream that does not hash to the wanted digest
// fails with ErrCacheTampered before its last byte is released, and
// runs onFail once.
func TestVerifiedReader(t *testing.T) {
	for _, size := range []int{0, 1, verifiedBlock - 1, verifiedBlock, verifiedBlock + 1, 3*verifiedBlock + 7} {
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(data)
		open := func(want [sha256.Size]byte, onFail func()) io.ReadCloser {
			return NewVerifiedReader(io.NopCloser(iotest.HalfReader(bytes.NewReader(data))), want, onFail)
		}
		if err := iotest.TestReader(open(sha256.Sum256(data), nil), data); err != nil {
			t.Fatalf("size %d, Read: %v", size, err)
		}
		var out bytes.Buffer
		if _, err := io.Copy(&out, open(sha256.Sum256(data), nil)); err != nil || !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("size %d, WriteTo: %d bytes, err %v", size, out.Len(), err)
		}
		for _, mode := range []string{"Read", "WriteTo"} {
			fails := 0
			vr := open([sha256.Size]byte{}, func() { fails++ })
			var err error
			if mode == "Read" {
				var got []byte
				got, err = io.ReadAll(vr)
				out.Reset()
				out.Write(got)
			} else {
				out.Reset()
				_, err = io.Copy(&out, vr)
			}
			if !errors.Is(err, ErrCacheTampered) || fails != 1 {
				t.Fatalf("size %d, %s, wrong digest: err %v, onFail ran %d times", size, mode, err, fails)
			}
			if size > 0 && out.Len() >= size {
				t.Fatalf("size %d, %s, wrong digest: released all %d bytes", size, mode, out.Len())
			}
		}
	}
}

// TestVerifiedReaderClose: Close hands the pooled blocks back mid-stream
// too, so a closed reader must release nothing more — not even bytes it
// had already verified — and closing twice closes the source once.
func TestVerifiedReaderClose(t *testing.T) {
	data := make([]byte, 3*verifiedBlock)
	rand.New(rand.NewSource(31)).Read(data)
	src := &closeCounter{Reader: bytes.NewReader(data)}
	vr := NewVerifiedReader(src, sha256.Sum256(data), nil)
	if _, err := io.ReadFull(vr, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := vr.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if src.closes != 1 {
		t.Fatalf("source closed %d times, want 1", src.closes)
	}
	if n, err := vr.Read(make([]byte, 10)); n != 0 || err == nil || err == io.EOF {
		t.Fatalf("Read after Close = %d, %v; want 0 and a non-EOF error", n, err)
	}
	if n, err := io.Copy(io.Discard, vr); n != 0 || err == nil {
		t.Fatalf("WriteTo after Close = %d, %v; want 0 and an error", n, err)
	}
}

// TestVerifiedReadersConcurrent streams one stored package through many
// verified readers at once: the pooled blocks pass from each closed
// reader to the next, and the stored slice is shared by all of them,
// yet every stream must deliver exactly the stored bytes.
func TestVerifiedReadersConcurrent(t *testing.T) {
	data := make([]byte, 3*verifiedBlock+17)
	rand.New(rand.NewSource(37)).Read(data)
	entry := index.Entry{Size: int64(len(data)), Hash: sha256.Sum256(data)}
	st := store.NewMem()
	if err := st.Put("pkg", data); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rc, ok := OpenVerified(st, "pkg", entry)
				if !ok {
					t.Error("OpenVerified refused the stored entry")
					return
				}
				var out bytes.Buffer
				_, err := io.Copy(&out, rc)
				rc.Close()
				if err != nil || !bytes.Equal(out.Bytes(), data) {
					t.Errorf("stream %d: %d bytes, %v", i, out.Len(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

type closeCounter struct {
	io.Reader
	closes int
}

func (c *closeCounter) Close() error { c.closes++; return nil }

// acceptsGzipRows are Accept-Encoding headers and whether they admit
// gzip. FuzzAcceptsGzip seeds from them.
var acceptsGzipRows = []struct {
	header string
	want   bool
}{
	{"", false},
	{"identity", false},
	{"gzip", true},
	{"GZIP", true},
	{"br, gzip", true},
	{"gzip;q=1", true},
	{"gzip;q=0.5", true},
	{"gzip; q=0.001", true},
	{"*", true},
	{"*;q=0", false},
	{"*;q=0, gzip", true},
	{"gzip;q=0", false},
	{"gzip;q=0.0", false},
	{"gzip; q=0.000", false},
	{"gzip;Q=0", false},
	{"gzip ; q = 0", false},
	{"gzip;q=0, *", false},
	{"*, gzip;q=0", false},
	{"gzip;q=0, gzip", false},
	{"br;q=0, gzip;q=0.8", true},
	{"gzip;level=9", true},
	{"gzip;q=bogus", true},
}

// TestAcceptsGzip: weights are read as RFC 9110 §12.4.2 writes them —
// any case, any zero spelling — and an explicit gzip refusal beats a
// wildcard (§12.5.3).
func TestAcceptsGzip(t *testing.T) {
	for _, row := range acceptsGzipRows {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set("Accept-Encoding", row.header)
		if got := AcceptsGzip(req); got != row.want {
			t.Errorf("AcceptsGzip(%q) = %v, want %v", row.header, got, row.want)
		}
	}
}

// layoutFiles is 12 files of 40 KiB of compressible text, in path
// order; only file bumped's text depends on version. Each file closes
// a deflate run by itself.
func layoutFiles(version string, bumped int) []apk.File {
	words := []string{"package", "signature", "enclave", "mirror", "index", "refresh", "the", "of"}
	var files []apk.File
	for i := 0; i < 12; i++ {
		seed := int64(i + 1)
		if i == bumped {
			for _, c := range version {
				seed = seed*131 + int64(c)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var b []byte
		for len(b) < 40<<10 {
			b = append(append(b, words[rng.Intn(len(words))]...), " \n"[rng.Intn(2)])
		}
		files = append(files, apk.File{Path: fmt.Sprintf("/usr/share/layout/%02d.txt", i), Mode: 0o644, Content: b[:40<<10]})
	}
	return files
}

// encodeSigned encodes a package of files, signed the way TSR signs.
func encodeSigned(t testing.TB, version string, files []apk.File) []byte {
	t.Helper()
	p := &apk.Package{Name: "layout", Version: version, Files: files}
	if err := apk.Sign(p, keys.Shared.MustGet("layout-tsr")); err != nil {
		t.Fatal(err)
	}
	raw, err := apk.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// memberEnds returns the offset at which each gzip member of raw ends.
// gzip.Reader reads a bytes.Reader byte by byte, so what is left of it
// after a member is exactly what follows that member.
func memberEnds(t *testing.T, raw []byte) []int64 {
	t.Helper()
	br := bytes.NewReader(raw)
	zr, err := gzip.NewReader(br)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for {
		zr.Multistream(false)
		if _, err := io.Copy(io.Discard, zr); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int64(len(raw)-br.Len()))
		if err := zr.Reset(br); err == io.EOF {
			return ends
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// runEnds returns where each file's deflate run ends in the encoding
// of files, given that its data member starts at dataStart. A run is
// the deflate of one file's tar entry, the same bytes in every package
// that holds the file, so the first k runs take what the data member
// of the first k files takes beyond that of none.
func runEnds(t *testing.T, files []apk.File, dataStart int64) []int64 {
	t.Helper()
	dataLen := func(k int) int64 {
		ends := memberEnds(t, encodeSigned(t, "1.0-r0", files[:k]))
		return ends[2] - ends[1]
	}
	empty := dataLen(0)
	var ends []int64
	for k := 1; k <= len(files); k++ {
		ends = append(ends, dataStart+10+dataLen(k)-empty) // 10: gzip header
	}
	return ends
}

// TestChunksFollowPackageLayout: the cutter ends a chunk where an
// encoded package's data member starts and where every file's run ends
// (the signature and control members and the tar end-of-archive hold
// runs shorter than its 512-byte minimum, which it passes over). So two
// versions that differ in one file share every chunk but the re-signed
// head, that file's run and the final-block-and-trailer tail.
func TestChunksFollowPackageLayout(t *testing.T) {
	const bumped = 5
	oldFiles, newFiles := layoutFiles("1.0-r0", bumped), layoutFiles("2.0-r0", bumped)
	oldRaw, newRaw := encodeSigned(t, "1.0-r0", oldFiles), encodeSigned(t, "2.0-r0", newFiles)
	var dataStart int64
	var ends []int64
	for _, v := range []struct {
		raw   []byte
		files []apk.File
	}{{oldRaw, oldFiles}, {newRaw, newFiles}} {
		members := memberEnds(t, v.raw)
		if len(members) != 3 {
			t.Fatalf("%d gzip members, want 3", len(members))
		}
		dataStart = members[1]
		ends = runEnds(t, v.files, dataStart)
		starts := make(map[int64]bool)
		for _, c := range store.CutChunks(v.raw) {
			starts[c.Offset] = true
		}
		for i, off := range append([]int64{dataStart}, ends...) {
			if !starts[off] {
				t.Errorf("boundary %d (offset %d of %d) starts no chunk", i, off, len(v.raw))
			}
		}
	}

	// Every chunk of the new version the old one lacks lies in the head,
	// the bumped file's run or the tail.
	oldChunks := make(map[[sha256.Size]byte]bool)
	for _, c := range store.BuildManifest(oldRaw).Chunks {
		oldChunks[c.Hash] = true
	}
	regions := [][2]int64{{0, dataStart}, {ends[bumped-1], ends[bumped]}, {ends[len(ends)-1], int64(len(newRaw))}}
	var fetched int64
	for _, c := range store.BuildManifest(newRaw).Chunks {
		if oldChunks[c.Hash] {
			continue
		}
		fetched += c.Size
		in := false
		for _, r := range regions {
			in = in || (c.Offset >= r[0] && c.Offset+c.Size <= r[1])
		}
		if !in {
			t.Errorf("unshared chunk [%d,%d) outside the head [0,%d), run [%d,%d) and tail [%d,%d)",
				c.Offset, c.Offset+c.Size, dataStart, ends[bumped-1], ends[bumped], ends[len(ends)-1], len(newRaw))
		}
	}
	t.Logf("%d of %d bytes unshared: head %d, run %d, tail %d", fetched, len(newRaw),
		dataStart, ends[bumped]-ends[bumped-1], int64(len(newRaw))-ends[len(ends)-1])
}
