package edge

import (
	"context"
	"errors"
	"fmt"

	"tsr/internal/index"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// Wire efficiency at the edge tier: the one verified pull both the
// replica's pull-through cache and the FailoverClient take package
// bytes through (chunk-aware, differential against a held base),
// chunk-manifest + byte-range serving (so edges chain behind edges and
// clients diff against them exactly like against the origin), and
// streaming verified serving off the package cache. The trust model is
// the replica's usual one — nothing here is trusted: manifests are
// transfer metadata, and every pulled package must hash to the signed
// index entry before it is cached, served or installed.

// fetchRange fetches length bytes of name at off for a differential
// pull. The range read is the one upstream call outside Fetcher,
// because it has two shapes: the in-process tiers (*tsr.Repo,
// *Replica) slice already-verified bytes and take no validator, while
// *tsr.Client sends the entry's ETag as If-Range, so a republish
// between the manifest fetch and the range fetch yields a detectable
// full body instead of a spliced range. An upstream with neither shape
// cannot diff; the caller falls back to a full fetch.
func fetchRange(ctx context.Context, src Fetcher, name string, off, length int64, etag string) ([]byte, error) {
	switch c := src.(type) {
	case interface {
		FetchPackageRangeCtx(context.Context, string, int64, int64, string) ([]byte, error)
	}:
		return c.FetchPackageRangeCtx(ctx, name, off, length, etag)
	case interface {
		FetchPackageRangeCtx(context.Context, string, int64, int64) ([]byte, error)
	}:
		return c.FetchPackageRangeCtx(ctx, name, off, length)
	}
	return nil, fmt.Errorf("edge: %s: upstream %T serves no byte ranges", name, src)
}

// errWrongBytes: an upstream served bytes that do not hash to the entry.
var errWrongBytes = errors.New("served bytes do not match the signed index entry")

// pulled is what one pull produced, for the caller to keep and count.
// A pull given a base that returns no manifest fell back to a full
// fetch. The manifest of a pull that diffed had every chunk checked
// against raw (see tsr.ReassembleChunks): it is the next pull's base.
type pulled struct {
	raw      []byte               // verified; nil when the pull failed
	manifest *store.ChunkManifest // set when the pull diffed
	ledger   tsr.ReassembleStats  // the differential pull's byte ledger
	full     bool                 // a full fetch returned bytes, matching or not
}

// pull fetches name@entry from src: differentially against old (and
// oldM, its manifest, when the tier holds one) when the caller has a
// base, with a full fetch as the fallback for any differential
// failure. It is the one place a downstream tier takes package bytes
// from an upstream, so the paper's guarantee has one enforcement point
// here: whichever bytes come back are checked against the signed entry
// once, and only bytes that match are returned. Full-fetch bytes that
// do not match are errWrongBytes. The outcome is returned on error too,
// so the caller counts what the pull did either way.
func pull(ctx context.Context, src Fetcher, name string, entry index.Entry, old []byte, oldM *store.ChunkManifest) (pulled, error) {
	var p pulled
	if old != nil {
		m, err := src.FetchChunkManifestCtx(ctx, name)
		// Root the manifest in the signed entry before trusting its
		// shape; the size check also bounds what reassembly allocates.
		if err == nil && (m.PackageHash != entry.Hash || m.TotalSize != entry.Size) {
			err = fmt.Errorf("edge: %s: chunk manifest does not match the signed index entry", name)
		}
		var out []byte
		if err == nil {
			out, p.ledger, err = tsr.ReassembleChunks(m, old, oldM, func(off, length int64) ([]byte, error) {
				return fetchRange(ctx, src, name, off, length, entry.ETag())
			})
		}
		if err == nil && entry.Matches(out) {
			p.raw, p.manifest = out, m
			return p, nil
		}
	}
	raw, err := src.FetchPackageCtx(ctx, name)
	if err != nil {
		return p, err
	}
	p.full = true
	if !entry.Matches(raw) {
		return p, errWrongBytes
	}
	p.raw = raw
	return p, nil
}

// previousCached returns verified bytes of an older generation of name
// still held in the cache — the diff base for a differential pull —
// and their manifest when the replica holds one. The retained
// generation history (the same window the delta endpoint serves from)
// maps the name to its previous content hashes; it is restored with the
// journaled index, so a warm restart on a disk store still finds bases.
func (rep *Replica) previousCached(name string, entry index.Entry) ([]byte, *store.ChunkManifest) {
	st := rep.served.Load()
	if st == nil {
		return nil, nil
	}
	for i := len(st.History) - 1; i >= 0; i-- {
		old, err := st.History[i].Index.Lookup(name)
		if err != nil || old.Hash == entry.Hash {
			continue
		}
		if raw, ok := tsr.GetVerified(rep.store(), cacheKey(old.Hash), old); ok {
			return raw, rep.manifests.Lookup(name, old.Hash)
		}
	}
	return nil, nil
}

// pullPackage is the edge's miss path: pull from the origin against
// the newest cached previous generation, count the outcome, and seed
// the manifest of a differential pull, so the /chunks request that
// usually follows it cuts nothing.
func (rep *Replica) pullPackage(ctx context.Context, name string, entry index.Entry) ([]byte, error) {
	old, oldM := rep.previousCached(name, entry)
	p, err := pull(ctx, rep.Origin, name, entry, old, oldM)
	switch {
	case p.manifest != nil:
		rep.stats.diffPulls.Add(1)
		rep.stats.diffBytesReused.Add(p.ledger.BytesReused)
		rep.stats.diffBytesFetched.Add(p.ledger.BytesFetched)
		rep.manifests.Seed(name, p.manifest)
	case old != nil:
		rep.stats.diffFallbacks.Add(1)
	}
	if p.full {
		rep.stats.originPackages.Add(1)
	}
	if err != nil {
		return nil, fmt.Errorf("edge: pull-through %s: %w", name, err)
	}
	return p.raw, nil
}

// FetchChunkManifestCtx serves the chunk manifest of a package this
// replica serves — the same surface the origin exposes, so downstream
// replicas and clients diff against an edge exactly like against the
// origin.
func (rep *Replica) FetchChunkManifestCtx(ctx context.Context, name string) (*store.ChunkManifest, error) {
	mw, err := rep.FetchManifestWireCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	return mw.ChunkManifest, nil
}

// FetchManifestWireCtx is FetchChunkManifestCtx with the manifest's
// memoized wire form, for the /chunks route.
func (rep *Replica) FetchManifestWireCtx(ctx context.Context, name string) (*tsr.ManifestWire, error) {
	entry, err := rep.resolveEntry(name)
	if err != nil {
		return nil, err
	}
	return rep.manifests.Get(name, entry, func() ([]byte, error) { return rep.fetchEntry(ctx, name, entry) })
}

// FetchPackageRangeCtx serves length bytes of a package starting at
// off, sliced from verified bytes.
func (rep *Replica) FetchPackageRangeCtx(ctx context.Context, name string, off, length int64) ([]byte, error) {
	raw, _, err := rep.FetchPackageTracedCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	return tsr.SliceRange(name, raw, off, length)
}

// FetchPackageTracedCtx serves a package's buffered bytes — local cache
// first, pull-through on a miss — with the ETag of the entry they were
// fetched for. The HTTP tier slices Range responses from them. (From,
// the origin's provenance, stays zero at an edge and is not sent.)
func (rep *Replica) FetchPackageTracedCtx(ctx context.Context, name string) ([]byte, *tsr.FetchResult, error) {
	entry, err := rep.resolveEntry(name)
	if err != nil {
		return nil, nil, err
	}
	raw, err := rep.fetchEntry(ctx, name, entry)
	if err != nil {
		return nil, nil, err
	}
	return raw, &tsr.FetchResult{ETag: entry.ETag()}, nil
}

// OpenPackageCtx opens a package for streaming serving: off the cache
// through hash-as-you-copy verification (tsr.OpenVerified) when it
// holds the entry — a tampered cache entry aborts the stream before the
// final block and is dropped, so the next request heals via
// pull-through — and through the buffered fetchEntry path otherwise
// (cache miss, or a misbehaving replica simulating corruption, which
// needs the buffer to flip its byte).
func (rep *Replica) OpenPackageCtx(ctx context.Context, name string) (*tsr.PackageStream, error) {
	entry, err := rep.resolveEntry(name)
	if err != nil {
		return nil, err
	}
	res := &tsr.FetchResult{ETag: entry.ETag()}
	if rep.Behavior() == Honest {
		if rc, ok := tsr.OpenVerified(rep.store(), cacheKey(entry.Hash), entry); ok {
			rep.stats.PackageReads.Add(1)
			rep.stats.packageHits.Add(1)
			rep.stats.streamedServes.Add(1)
			return &tsr.PackageStream{ReadCloser: rc, Size: entry.Size, Res: res}, nil
		}
	}
	// fetchEntry hangs the pull-through round trip and the served_from
	// attribute off whatever span the context carries (the obs server
	// span, when tracing is on).
	raw, err := rep.fetchEntry(ctx, name, entry)
	if err != nil {
		return nil, err
	}
	return tsr.BufferedStream(raw, res), nil
}
