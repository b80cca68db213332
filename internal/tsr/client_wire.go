package tsr

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"tsr/internal/store"
	"tsr/internal/trace"
)

// Client-side wire efficiency: compressed index transfer accounting
// and chunk-manifest + byte-range fetches. The client is a transport;
// callers verify. Manifests and ranges are untrusted transfer metadata:
// the chunk-differential engine that uses them (edge.Replica and
// edge.FailoverClient, through their one shared pull) roots each
// manifest in an accepted index entry and checks the reassembled bytes
// against it.

// wireCounters are the client's cumulative wire-traffic counters.
type wireCounters struct {
	indexBytes    atomic.Int64 // index + delta body bytes, as transferred (compressed when negotiated)
	packageBytes  atomic.Int64 // package body bytes: full downloads + range fetches
	manifestBytes atomic.Int64 // chunk-manifest body bytes
	fullFetches   atomic.Int64
	rangeRequests atomic.Int64
}

// WireStats is a point-in-time snapshot of the client's wire traffic.
// Byte counts are response-body bytes as transferred: gzip-encoded
// indexes count their compressed size.
type WireStats struct {
	IndexBytes    int64 `json:"index_bytes"`
	PackageBytes  int64 `json:"package_bytes"`
	ManifestBytes int64 `json:"manifest_bytes"`
	FullFetches   int64 `json:"full_fetches"`
	// Deprecated: DiffFetches is always 0. The client no longer runs a
	// differential engine of its own; edge.Replica and
	// edge.FailoverClient count their differential fetches.
	DiffFetches int64 `json:"diff_fetches"`
	// Deprecated: ChunksFetched is always 0, for the same reason.
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

// readBody reads a response body of at most limit bytes, counting its
// wire bytes into n, and returns the DECODED bytes, so callers verify
// signatures and hashes over the canonical representation. The
// server's Content-Length is a claim: one above limit is refused before
// anything is read, and it presizes the buffer only up to
// maxBodyPresize, so a hostile length costs no more memory than the
// bytes that actually arrive; without one the buffer grows as bytes
// do. (net/http itself fails a body shorter than its Content-Length,
// and returns io.EOF with the last bytes of one that matches it, so
// such a body fills its buffer exactly.) A gzip body is held to limit
// both as transferred and as decoded.
func readBody(resp *http.Response, limit int64, n *atomic.Int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("Content-Length %d exceeds the %d-byte cap", resp.ContentLength, limit)
	}
	wire := &countReader{r: resp.Body, n: n}
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		return gunzipBody(io.LimitReader(wire, limit), limit)
	}
	return readAtMost(make([]byte, 0, min(max(resp.ContentLength, 0), maxBodyPresize)), wire, limit)
}

// readAtMost appends what r holds to buf, which it grows only when it
// is full, and fails once more than limit bytes have arrived.
func readAtMost(buf []byte, r io.Reader, limit int64) ([]byte, error) {
	r = io.LimitReader(r, limit+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case int64(len(buf)) > limit:
			return nil, fmt.Errorf("body exceeds the %d-byte cap", limit)
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return nil, err
		}
	}
}

// gunzipBody decodes a gzip body into a pooled scratch buffer and
// returns an exact-size copy: the decoded size is unknown until the
// stream ends, so the buffer grows once per pooled gunzipper, not once
// per body.
func gunzipBody(r io.Reader, limit int64) ([]byte, error) {
	g := gunzips.Get().(*gunzipper)
	g.br.Reset(r)
	if err := g.zr.Reset(&g.br); err != nil {
		return nil, fmt.Errorf("gzip body: %w", err)
	}
	raw, err := readAtMost(g.out[:0], &g.zr, limit)
	if err != nil {
		return nil, fmt.Errorf("gzip body: %w", err)
	}
	g.br.Reset(nil) // let go of the response body
	g.out = nil
	if cap(raw) <= maxPooledGunzipBytes {
		g.out = raw
	}
	raw = bytes.Clone(raw)
	gunzips.Put(g)
	return raw, nil
}

// A gunzipper is a gzip reader with the read-ahead buffer it reads
// through and the scratch buffer it decodes into, pooled for
// gunzipBody: its flate state and 32 KiB window survive a Reset, and a
// gunzipper goes back to the pool only after a clean read.
type gunzipper struct {
	br  bufio.Reader
	zr  gzip.Reader
	out []byte
}

var gunzips = sync.Pool{New: func() any { return new(gunzipper) }}

// maxPooledGunzipBytes caps the scratch capacity a pooled gunzipper
// keeps, so the pool cannot pin the buffer of an unusually large index.
const maxPooledGunzipBytes = 1 << 20

// maxIndexWireBytes bounds an index/delta response body (wire form).
const maxIndexWireBytes = 256 << 20

// maxManifestBodyBytes bounds a chunk-manifest response body: ~128
// bytes per chunk at the minimum chunk size puts any real manifest far
// under this.
const maxManifestBodyBytes = 16 << 20

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
	raw, err := readBody(resp, maxManifestBodyBytes, &c.wire.manifestBytes)
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
		raw, err := readBody(resp, length, &c.wire.packageBytes)
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
		raw, err := readBody(resp, maxPackageBytes, &c.wire.packageBytes)
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
