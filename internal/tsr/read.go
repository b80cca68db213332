package tsr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"tsr/internal/index"
	"tsr/internal/store"
	"tsr/internal/trace"
)

// The read API — what a package manager sees as "a standard repository
// mirror" (§4.3) — written once for both serving tiers. The origin
// (*Repo) and the untrusted edge (*edge.Replica) publish the same kind
// of generation, answer the same four routes from it, and differ only
// in where package bytes come from, in their sentinel→status table,
// and in one tier header. "A response's ETag always names the bytes it
// carries" therefore has exactly one enforcement point: this file.

// Published is one immutable published index generation: the read state
// a tier swaps in with a single atomic pointer store, so requests never
// wait on a refresh (origin) or a sync (edge). Nothing reachable from a
// Published changes after Publish returns it.
type Published struct {
	Signed *index.Signed // the enclave-signed index, served verbatim
	ETag   string        // strong ETag: the digest of the signed form
	Index  *index.Index  // decoded form of Signed
	// History holds the most recent generations (this one last, at most
	// index.HistoryWindow) — the bases GET /index/delta can diff against.
	History []index.Generation
	// wire memoizes the generation's wire forms (wire.go). It starts
	// empty: each form is built by the first request that needs it, so a
	// publish nobody reads pays for none of them.
	wire *wireMemo
}

// Publish builds the generation that follows prev (nil before the first
// publish). The history is carried forward copy-on-write, so a reader
// still holding prev keeps its own window, and republishing the same
// generation does not duplicate it — nor its wire forms.
func Publish(prev *Published, signed *index.Signed, ix *index.Index) Published {
	etag := signed.ETag()
	var hist []index.Generation
	wire := new(wireMemo)
	if prev != nil {
		hist = prev.History
		if prev.ETag == etag {
			wire = prev.wire
		}
	}
	return Published{Signed: signed, ETag: etag, Index: ix, History: index.AppendGeneration(hist, etag, ix), wire: wire}
}

// Delta returns the delta from the generation published under since to
// this one: index.ErrDeltaUnchanged when since IS this generation, and
// index.ErrNoDelta when the base is no longer retained (the caller
// falls back to a full fetch).
func (p *Published) Delta(since string) (*index.Delta, error) {
	base, err := p.base(since)
	if err != nil {
		return nil, err
	}
	return index.ComputeDelta(since, p.History[base].Index, p.Signed, p.Index)
}

// base is the position in History of the generation published under
// since, with Delta's errors when there is none to diff against.
func (p *Published) base(since string) (int, error) {
	if since == p.ETag {
		return 0, index.ErrDeltaUnchanged
	}
	if i, ok := index.FindGeneration(p.History, since); ok {
		return i, nil
	}
	return 0, fmt.Errorf("%w: since %s", index.ErrNoDelta, since)
}

// ReadCounters are the read-tier counters both tiers report in /stats.
// Plain atomics: the serving path never takes a lock to count.
type ReadCounters struct {
	// IndexReads and PackageReads count requests answered from the
	// published generation, conditional revalidations included.
	IndexReads, PackageReads atomic.Int64
	// NotModified counts revalidations answered 304; each is also a read.
	NotModified atomic.Int64
	// DeltaReads counts index reads answered through /index/delta; each
	// is also an IndexRead.
	DeltaReads atomic.Int64
}

// NoteDelta counts one Published.Delta answer. A delta revalidation IS
// an index read answered from the tag alone, so it counts like the
// full-index 304: operators watching /stats see the replica fleet's
// polling either way.
func (c *ReadCounters) NoteDelta(err error) {
	switch {
	case err == nil:
		c.IndexReads.Add(1)
		c.DeltaReads.Add(1)
	case errors.Is(err, index.ErrDeltaUnchanged):
		c.IndexReads.Add(1)
		c.NotModified.Add(1)
		c.DeltaReads.Add(1)
	}
}

// ReadView is what the read routes need from a tier. Every method
// answers from the tier's currently published generation without
// blocking on a refresh or sync; *Repo and *edge.Replica implement it.
type ReadView interface {
	// Current is the published generation, or why the tier cannot serve
	// one. The index routes answer a request, revalidation and body
	// alike, from one call, so the ETag sent always names the bytes sent.
	Current() (*Published, error)
	// PackageETag resolves a package to its strong ETag (the content
	// hash from the signed index) without touching its bytes.
	PackageETag(name string) (string, error)
	// OpenPackageCtx and FetchPackageTracedCtx produce a package's
	// verified bytes — streamed, or buffered for range slicing —
	// together with the ETag of the one resolution that produced them.
	OpenPackageCtx(ctx context.Context, name string) (*PackageStream, error)
	FetchPackageTracedCtx(ctx context.Context, name string) ([]byte, *FetchResult, error)
	// FetchManifestBlobCtx is a package's stored chunk manifest
	// (StoredManifest) together with the ETag of the one resolution
	// that found it.
	FetchManifestBlobCtx(ctx context.Context, name string) ([]byte, string, error)
	ReadCounters() *ReadCounters
}

// HTTP wire headers. The index signature headers are the enclave's —
// an edge re-exposes them verbatim, it never re-signs. The tier headers
// tell the tiers apart: the origin reports how it produced a package,
// an edge names the replica that answered.
const (
	headerKeyName    = "X-Tsr-Key-Name"
	headerSignature  = "X-Tsr-Signature"
	headerServedFrom = "X-Tsr-Served-From"
	headerEdge       = "X-Tsr-Edge"
)

// RegisterReadRoutes registers the read API on mux:
//
//	GET /repos/{id}/index                 the signed metadata index
//	GET /repos/{id}/index/delta           delta from a retained generation (?since=<etag>)
//	GET /repos/{id}/packages/{pkg}        a sanitized package (Range / If-Range capable)
//	GET /repos/{id}/packages/{pkg}/chunks the package's chunk manifest
//
// lookup resolves a repository id (its error is answered 404) and
// statusFor is the tier's sentinel→status table. edge is empty at the
// origin, which reports each package's provenance in X-Tsr-Served-From;
// an edge passes its name, sent as X-Tsr-Edge on every response.
//
// Representation headers (ETag, Accept-Ranges, Content-Type,
// Content-Length, X-Tsr-Served-From) are set only once the bytes are in
// hand and come from the resolution that produced them, so an error
// body never carries a package's validators.
func RegisterReadRoutes(mux *http.ServeMux, lookup func(id string) (ReadView, error), statusFor func(error) int, edge string) {
	view := func(w http.ResponseWriter, r *http.Request) ReadView {
		if edge != "" {
			w.Header().Set(headerEdge, edge)
		}
		v, err := lookup(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return nil
		}
		return v
	}
	// tagged sets the validator pair every 200, 206 and 304 carries.
	tagged := func(w http.ResponseWriter, etag string) {
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache")
	}
	// The index spans name the tier that answered, as the in-process
	// fetches of each tier do.
	tier := "origin"
	if edge != "" {
		tier = "edge"
	}
	indexSpan, deltaSpan := tier+".index", tier+".index_delta"
	mux.HandleFunc("GET /repos/{id}/index", func(w http.ResponseWriter, r *http.Request) {
		v := view(w, r)
		if v == nil {
			return
		}
		p, err := v.Current()
		if err != nil {
			HTTPError(w, statusFor(err), err)
			return
		}
		c := v.ReadCounters()
		c.IndexReads.Add(1)
		tagged(w, p.ETag)
		// The ETag is the digest of the signed index: it changes exactly
		// when a new generation is published, so clients revalidate with
		// If-None-Match instead of re-downloading the full index. A match
		// is answered from the tag alone.
		if ETagMatch(r.Header.Get("If-None-Match"), p.ETag) {
			c.NotModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		_, sp := trace.Start(r.Context(), indexSpan)
		sp.SetTier(tier)
		m := p.indexWire()
		sp.End()
		w.Header().Set(headerKeyName, p.Signed.KeyName)
		w.Header().Set(headerSignature, m.signature)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// The canonical signed text stays what the ETag and signature
		// cover; gzip is negotiated transfer encoding on top of it.
		writeEncoded(w, r, p.Signed.Raw, m.indexGz)
	})
	mux.HandleFunc("GET /repos/{id}/index/delta", func(w http.ResponseWriter, r *http.Request) {
		v := view(w, r)
		if v == nil {
			return
		}
		since := r.URL.Query().Get("since")
		if since == "" {
			HTTPError(w, http.StatusBadRequest, errors.New("missing since=<etag> query parameter"))
			return
		}
		_, sp := trace.Start(r.Context(), deltaSpan)
		sp.SetTier(tier)
		p, err := v.Current()
		var d *deltaWire
		if err == nil {
			d, err = p.deltaWire(since)
			v.ReadCounters().NoteDelta(err)
		}
		// 304 and 404 are protocol answers, not failures.
		if err != nil && !errors.Is(err, index.ErrDeltaUnchanged) && !errors.Is(err, index.ErrNoDelta) {
			sp.SetError(err)
		}
		sp.End()
		if errors.Is(err, index.ErrDeltaUnchanged) {
			// The base generation IS the current one: nothing to send.
			tagged(w, since)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if err != nil {
			// index.ErrNoDelta maps to 404: the caller falls back to a
			// full index fetch.
			HTTPError(w, statusFor(err), err)
			return
		}
		tagged(w, p.ETag)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeEncoded(w, r, d.raw, d.gz)
	})
	mux.HandleFunc("GET /repos/{id}/packages/{pkg}", func(w http.ResponseWriter, r *http.Request) {
		v := view(w, r)
		if v == nil {
			return
		}
		pkg := r.PathValue("pkg")
		// Conditional fast path: the package ETag is its content hash
		// from the signed index, so a match skips the byte read (and any
		// pull-through or re-sanitization) entirely. Checked BEFORE Range
		// — RFC 9110 gives If-None-Match precedence, so a revalidating
		// client gets its 304 even when it also sent a Range. A resolve
		// error falls through: the fetch below reports it in full.
		if etag, err := v.PackageETag(pkg); err == nil &&
			ETagMatch(r.Header.Get("If-None-Match"), etag) {
			c := v.ReadCounters()
			c.PackageReads.Add(1)
			c.NotModified.Add(1)
			tagged(w, etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		// Each fetch resolves the published state ONCE and returns the
		// bytes together with that resolution's ETag, which is the only
		// source of the headers below. Resolving per step (as the edge
		// handler once did) let a publish landing mid-request emit an
		// ETag from a newer generation than the bytes served — a
		// cache-poisoning gift to any intermediary that stores the pair.
		represent := func(res *FetchResult) {
			tagged(w, res.ETag)
			w.Header().Set("Accept-Ranges", "bytes")
			if edge == "" {
				w.Header().Set(headerServedFrom, res.From.String())
			}
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		if r.Header.Get("Range") != "" {
			// Range requests serve slices of buffered already-verified
			// bytes: a 206 must never splice unverified data. It carries
			// the FULL representation's strong ETag.
			raw, res, err := v.FetchPackageTracedCtx(r.Context(), pkg)
			if err != nil {
				HTTPError(w, statusFor(err), err)
				return
			}
			represent(res)
			if !ServeRange(w, r, res.ETag, raw) {
				w.Write(raw)
			}
			return
		}
		// Full-body requests stream: hash-as-you-copy off the store when
		// it can stream, buffered verified bytes otherwise. A mid-stream
		// verification failure aborts the response before the final
		// block, so the client never receives a complete body that does
		// not match the signed entry.
		stream, err := v.OpenPackageCtx(r.Context(), pkg)
		if err != nil {
			HTTPError(w, statusFor(err), err)
			return
		}
		defer stream.Close()
		represent(stream.Res)
		w.Header().Set("Content-Length", strconv.FormatInt(stream.Size, 10))
		// Copy from the inner reader, not the wrapper: buffered bytes then
		// write themselves out (io.WriterTo) without a copy buffer.
		if _, err := io.Copy(w, stream.ReadCloser); err != nil {
			// Headers (and some bytes) are out: the only honest move is
			// to kill the connection so the client sees a truncated
			// transfer, not a complete-looking wrong body.
			panic(http.ErrAbortHandler)
		}
	})
	mux.HandleFunc("GET /repos/{id}/packages/{pkg}/chunks", func(w http.ResponseWriter, r *http.Request) {
		v := view(w, r)
		if v == nil {
			return
		}
		pkg := r.PathValue("pkg")
		// The manifest is immutable per content hash, so it shares the
		// package's strong ETag and revalidates the same way — against
		// the resolved entry, BEFORE the manifest is read: on a store
		// miss that costs a full package fetch plus a chunking pass,
		// which a 304 must not pay.
		if etag, err := v.PackageETag(pkg); err == nil &&
			ETagMatch(r.Header.Get("If-None-Match"), etag) {
			tagged(w, etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		blob, etag, err := v.FetchManifestBlobCtx(r.Context(), pkg)
		if err != nil {
			HTTPError(w, statusFor(err), err)
			return
		}
		tagged(w, etag)
		w.Header().Set("Content-Type", "application/json")
		body, gz, _ := splitManifestBlob(blob)
		writeEncoded(w, r, body, gz)
	})
}

// ManifestSuffix turns a package blob's store key into the key of the
// chunk manifest a tier keeps beside it, retired and pruned with it.
const ManifestSuffix = ".chunks"

// StoredManifest returns the manifest blob (EncodeManifestBlob) st
// keeps beside the package blob at key. On a miss — and a stored body
// that does not name entry's hash and size is one, so a tier never
// serves a manifest its signed entry refutes — it cuts the manifest
// once from the bytes fetch returns, which must hash to entry, and
// stores it, unless the fetch stored it (an edge's differential pull
// stores the one it checked). The blob is read-only, and as untrusted
// as any manifest.
func StoredManifest(st store.Store, key, name string, entry index.Entry, fetch func() ([]byte, error)) ([]byte, error) {
	stored := func() ([]byte, bool) {
		blob, err := st.Get(key + ManifestSuffix)
		body, _, ok := splitManifestBlob(blob)
		return blob, err == nil && ok && rootedIn(body, entry)
	}
	if blob, ok := stored(); ok {
		return blob, nil
	}
	raw, err := fetch()
	if err != nil {
		return nil, err
	}
	if blob, ok := stored(); ok {
		return blob, nil
	}
	// Bytes that do not hash to the entry (a republish mid-fetch, a
	// replica simulating corruption) would mislead downstreams.
	m := store.BuildManifest(raw)
	if m.PackageHash != entry.Hash {
		return nil, fmt.Errorf("tsr: %s: bytes served for the chunk manifest do not match the index entry", name)
	}
	blob := EncodeManifestBlob(name, m, true)
	_ = st.Put(key+ManifestSuffix, blob)
	return blob, nil
}

// SliceRange returns a copy of length bytes of a package starting at
// off, sliced from already-verified bytes — the in-process side of
// chunk-aware sync.
func SliceRange(name string, raw []byte, off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || off+length > int64(len(raw)) {
		return nil, fmt.Errorf("tsr: package %s: range [%d,%d) outside %d bytes", name, off, off+length, len(raw))
	}
	return append([]byte(nil), raw[off:off+length]...), nil
}

// OpenVerified opens the blob at key for streaming through
// hash-as-you-copy verification against entry (NewVerifiedReader): the
// bytes flow out without ever being buffered whole, a mid-stream tamper
// surfaces as an error before the final block is released, and the
// poisoned blob is dropped so the next request heals. ok=false — the
// store does not hold exactly entry.Size bytes there — sends the
// caller to its buffered, already-verified path.
func OpenVerified(st store.Store, key string, entry index.Entry) (io.ReadCloser, bool) {
	rc, size, err := st.Open(key)
	if err != nil {
		return nil, false
	}
	if size != entry.Size {
		rc.Close()
		return nil, false
	}
	return NewVerifiedReader(rc, entry.Hash, func() { _ = st.Delete(key) }), true
}

// GetVerified reads the blob at key and returns it only when it hashes
// to entry: the one check every tier runs on what it reads back from
// its own store, which is as untrusted as any upstream. A blob that is
// there but does not match (tampered or truncated) is
// dropped, as OpenVerified drops one, so the caller's refill heals it.
// ok=false sends the caller to its fetch. The bytes are the store's
// read-only view, returned without a copy.
func GetVerified(st store.Store, key string, entry index.Entry) ([]byte, bool) {
	raw, err := st.Get(key)
	if err != nil {
		return nil, false
	}
	if !entry.Matches(raw) {
		_ = st.Delete(key)
		return nil, false
	}
	return raw, true
}
