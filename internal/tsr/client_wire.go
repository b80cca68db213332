package tsr

import (
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tsr/internal/index"
	"tsr/internal/store"
	"tsr/internal/trace"
)

// Client-side wire efficiency: compressed index transfer accounting,
// chunk-manifest + byte-range fetches, and chunk-aware differential
// package download. The manifest is untrusted transfer metadata, and
// every reassembled package must match its index entry's size and hash
// before it is returned or cached; any failure on the differential path
// falls back to a checked full fetch. The index those entries come from
// is NOT signature-verified by this client (see Client.FetchPackage):
// the check is transport integrity, and trust comes from the caller
// (pkgmgr.Manager, edge.FailoverClient; ROADMAP item 1(b)).

// wireCounters are the client's cumulative wire-traffic counters.
type wireCounters struct {
	indexBytes    atomic.Int64 // index + delta body bytes, as transferred (compressed when negotiated)
	packageBytes  atomic.Int64 // package body bytes: full downloads + range fetches
	manifestBytes atomic.Int64 // chunk-manifest body bytes
	fullFetches   atomic.Int64
	diffFetches   atomic.Int64
	diffFallbacks atomic.Int64
	cacheHits     atomic.Int64
	chunksReused  atomic.Int64
	chunksFetched atomic.Int64
	rangeRequests atomic.Int64
}

// WireStats is a point-in-time snapshot of the client's wire traffic.
// Byte counts are response-body bytes as transferred: gzip-encoded
// indexes count their compressed size, differential fetches count
// manifest + fetched ranges only.
type WireStats struct {
	IndexBytes    int64 `json:"index_bytes"`
	PackageBytes  int64 `json:"package_bytes"`
	ManifestBytes int64 `json:"manifest_bytes"`
	FullFetches   int64 `json:"full_fetches"`
	DiffFetches   int64 `json:"diff_fetches"`
	DiffFallbacks int64 `json:"diff_fallbacks"`
	CacheHits     int64 `json:"cache_hits"`
	ChunksReused  int64 `json:"chunks_reused"`
	ChunksFetched int64 `json:"chunks_fetched"`
	RangeRequests int64 `json:"range_requests"`
}

// TotalBytes is every response-body byte the client pulled.
func (s WireStats) TotalBytes() int64 { return s.IndexBytes + s.PackageBytes + s.ManifestBytes }

// WireStats reads the client's cumulative wire counters.
func (c *Client) WireStats() WireStats {
	return WireStats{
		IndexBytes:    c.wire.indexBytes.Load(),
		PackageBytes:  c.wire.packageBytes.Load(),
		ManifestBytes: c.wire.manifestBytes.Load(),
		FullFetches:   c.wire.fullFetches.Load(),
		DiffFetches:   c.wire.diffFetches.Load(),
		DiffFallbacks: c.wire.diffFallbacks.Load(),
		CacheHits:     c.wire.cacheHits.Load(),
		ChunksReused:  c.wire.chunksReused.Load(),
		ChunksFetched: c.wire.chunksFetched.Load(),
		RangeRequests: c.wire.rangeRequests.Load(),
	}
}

// countReader counts raw wire bytes as they are read.
type countReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// readBodyCounted reads a (possibly gzip transfer-encoded) response
// body: wire bytes — the compressed form when the server negotiated
// gzip — are counted into n, and the DECODED bytes are returned, so
// callers verify signatures/hashes over the canonical representation.
func readBodyCounted(resp *http.Response, limit int64, n *atomic.Int64) ([]byte, error) {
	var r io.Reader = &countReader{r: io.LimitReader(resp.Body, limit), n: n}
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("tsr client: gzip body: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	//lint:allow streamserve client buffers the decoded body to verify it against the signed form; bounded by limit
	return io.ReadAll(r)
}

// maxIndexWireBytes bounds an index/delta response body (wire form).
const maxIndexWireBytes = 256 << 20

// maxManifestWireBytes bounds a chunk-manifest response body: ~128
// bytes per chunk at the minimum chunk size puts any real manifest far
// under this.
const maxManifestWireBytes = 16 << 20

// FetchChunkManifest fetches the package's chunk manifest
// (GET .../packages/{name}/chunks). The result's shape is validated
// but its hashes are UNTRUSTED until reassembled bytes verify against
// the signed entry.
func (c *Client) FetchChunkManifest(name string) (*store.ChunkManifest, error) {
	return c.FetchChunkManifestCtx(nil, name)
}

// FetchChunkManifestCtx is FetchChunkManifest under a caller context.
func (c *Client) FetchChunkManifestCtx(ctx context.Context, name string) (_ *store.ChunkManifest, err error) {
	ctx, sp := trace.Start(ctx, "http.chunks")
	defer func() { sp.SetError(err); sp.End() }()
	sp.SetAttr("package", name)
	req, err := c.newRequest(ctx, c.BaseURL+"/repos/"+c.RepoID+"/packages/"+name+"/chunks")
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("tsr client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("tsr client: chunks %s: %s", name, readErr(resp))
	}
	raw, err := readBodyCounted(resp, maxManifestWireBytes, &c.wire.manifestBytes)
	if err != nil {
		return nil, fmt.Errorf("tsr client: %w", err)
	}
	_, m, err := DecodeChunkManifest(raw)
	return m, err
}

// FetchPackageRange fetches length bytes of a package starting at off
// via an HTTP Range request. etag, when non-empty, is sent as If-Range
// so a republished package yields the full new body (detected by
// length) instead of a spliced range.
func (c *Client) FetchPackageRange(name string, off, length int64) ([]byte, error) {
	return c.FetchPackageRangeCtx(nil, name, off, length, "")
}

// FetchPackageRangeCtx is FetchPackageRange under a caller context.
func (c *Client) FetchPackageRangeCtx(ctx context.Context, name string, off, length int64, etag string) (_ []byte, err error) {
	ctx, sp := trace.Start(ctx, "http.package_range")
	defer func() { sp.SetError(err); sp.End() }()
	sp.SetAttr("package", name)
	req, err := c.newRequest(ctx, c.BaseURL+"/repos/"+c.RepoID+"/packages/"+name)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+length-1))
	if etag != "" {
		req.Header.Set("If-Range", etag)
	}
	c.wire.rangeRequests.Add(1)
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("tsr client: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent:
		wantCR := fmt.Sprintf("bytes %d-%d/", off, off+length-1)
		if cr := resp.Header.Get("Content-Range"); !strings.HasPrefix(cr, wantCR) {
			return nil, fmt.Errorf("tsr client: range %s: Content-Range %q does not match requested [%d,%d)", name, cr, off, off+length)
		}
		raw, err := readBodyCounted(resp, length+1, &c.wire.packageBytes)
		if err != nil {
			return nil, fmt.Errorf("tsr client: %w", err)
		}
		if int64(len(raw)) != length {
			return nil, fmt.Errorf("tsr client: range %s: got %d bytes, want %d", name, len(raw), length)
		}
		return raw, nil
	case http.StatusOK:
		// The server ignored the Range (or If-Range failed): the full
		// body arrived. Satisfy the caller from it when possible.
		raw, err := readBodyCounted(resp, maxRangeFallbackBytes, &c.wire.packageBytes)
		if err != nil {
			return nil, fmt.Errorf("tsr client: %w", err)
		}
		if off+length > int64(len(raw)) {
			return nil, fmt.Errorf("tsr client: range %s: full body shorter than requested range", name)
		}
		return raw[off : off+length], nil
	default:
		return nil, fmt.Errorf("tsr client: range %s: %s", name, readErr(resp))
	}
}

// maxRangeFallbackBytes bounds the 200 fallback of a range request.
const maxRangeFallbackBytes = 1 << 30

// pkgCacheKey is the content-addressed PkgCache key for a verified
// package body — the same shape the edge replica uses.
func pkgCacheKey(hash [sha256.Size]byte) string {
	return "pkg/" + hex.EncodeToString(hash[:])
}

// ClientCache is a client's memory of the packages it verified, kept
// over an untrusted PkgCache store: the bytes by content hash, and per
// name the entry of the last verified fetch, the base of the next
// differential fetch. Every read re-verifies against an entry. The zero
// value is ready, and a nil store makes every read a miss and Remember
// a no-op. tsr.Client and edge.FailoverClient both hold one.
type ClientCache struct {
	mu   sync.Mutex
	last map[string]index.Entry // package name -> size and hash of the last verified fetch
}

// Cached returns entry's bytes from st when present and verifying, or
// nil. The bytes are read-only: they may be the stored value itself.
func (cc *ClientCache) Cached(st store.Store, entry index.Entry) []byte {
	if st == nil {
		return nil
	}
	raw, err := st.Get(pkgCacheKey(entry.Hash))
	if err != nil || !entry.Matches(raw) {
		return nil
	}
	return raw
}

// Remember stores verified package bytes in st, which takes ownership
// of raw, and records entry as name's diff base.
func (cc *ClientCache) Remember(st store.Store, name string, entry index.Entry, raw []byte) {
	if st == nil {
		return
	}
	_ = st.Put(pkgCacheKey(entry.Hash), raw)
	cc.mu.Lock()
	if cc.last == nil {
		cc.last = make(map[string]index.Entry)
	}
	cc.last[name] = index.Entry{Size: entry.Size, Hash: entry.Hash}
	cc.mu.Unlock()
}

// Previous returns the verified bytes of the version of name last
// remembered, when they are still cached and differ from the wanted
// entry. Like Cached, the bytes are read-only.
func (cc *ClientCache) Previous(st store.Store, name string, entry index.Entry) []byte {
	cc.mu.Lock()
	prev, ok := cc.last[name]
	cc.mu.Unlock()
	if !ok || prev.Hash == entry.Hash {
		return nil
	}
	return cc.Cached(st, prev)
}

// fetchPackageAny serves one package using the cheapest trustworthy
// path: cached exact bytes, then chunk-differential fetch against the
// previous cached version, then a verified full download. Only
// index-verified bytes are ever returned or cached.
func (c *Client) fetchPackageAny(ctx context.Context, name string, entry index.Entry) ([]byte, error) {
	if c.PkgCache == nil {
		return c.fetchPackageVerified(ctx, name, entry)
	}
	if raw := c.pkgs.Cached(c.PkgCache, entry); raw != nil {
		c.wire.cacheHits.Add(1)
		return raw, nil
	}
	if old := c.pkgs.Previous(c.PkgCache, name, entry); old != nil {
		raw, err := c.fetchPackageDiff(ctx, name, entry, old)
		if err == nil {
			c.wire.diffFetches.Add(1)
			c.pkgs.Remember(c.PkgCache, name, entry, raw)
			return raw, nil
		}
		// Any differential failure — tampered manifest, stale ranges,
		// reassembly mismatch — degrades to a full verified fetch.
		c.wire.diffFallbacks.Add(1)
	}
	raw, err := c.fetchPackageVerified(ctx, name, entry)
	if err != nil {
		return nil, err
	}
	c.pkgs.Remember(c.PkgCache, name, entry, raw)
	return raw, nil
}

// fetchPackageDiff reassembles the wanted package from the previous
// version's chunks plus range-fetched changed chunks, then verifies
// the whole against the signed entry. Any inconsistency is an error —
// the caller falls back to a full fetch.
func (c *Client) fetchPackageDiff(ctx context.Context, name string, entry index.Entry, old []byte) (_ []byte, err error) {
	ctx, sp := trace.Start(ctx, "http.package_diff")
	defer func() { sp.SetError(err); sp.End() }()
	sp.SetAttr("package", name)
	m, err := c.FetchChunkManifestCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	// Root the manifest in the signed entry before trusting its shape
	// for anything: a manifest for different bytes is useless at best.
	if m.PackageHash != entry.Hash || m.TotalSize != entry.Size {
		return nil, fmt.Errorf("tsr client: package %s: chunk manifest does not match the signed index entry", name)
	}
	out, st, err := ReassembleChunks(m, old, func(off, length int64) ([]byte, error) {
		return c.FetchPackageRangeCtx(ctx, name, off, length, entry.ETag())
	})
	if err != nil {
		return nil, err
	}
	if !entry.Matches(out) {
		return nil, fmt.Errorf("tsr client: package %s: differentially reassembled bytes do not match the signed index entry", name)
	}
	c.wire.chunksReused.Add(st.ChunksReused)
	c.wire.chunksFetched.Add(st.ChunksFetched)
	sp.SetAttr("chunks_reused", strconv.FormatInt(st.ChunksReused, 10))
	sp.SetAttr("chunks_fetched", strconv.FormatInt(st.ChunksFetched, 10))
	return out, nil
}
