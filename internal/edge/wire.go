package edge

import (
	"context"
	"fmt"

	"tsr/internal/index"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// Wire efficiency at the edge tier (ROADMAP item 18): chunk-aware
// differential pull-through sync, chunk-manifest + byte-range serving
// (so edges chain behind edges and clients diff against them exactly
// like against the origin), and streaming verified serving off the
// package cache. The trust model is the replica's usual one — nothing
// here is trusted: manifests are transfer metadata, and every
// reassembled package must hash to the signed index entry before it is
// cached or served.

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

// diffFetch reassembles name@entry from the old cached bytes (with
// oldM, their manifest, when the tier holds one) plus the upstream's
// chunk manifest and range fetches. It returns the bytes with that
// manifest, UNVERIFIED: the caller checks them against the signed entry
// once, and only then may keep the manifest (see
// tsr.ReassembleChunks). Any error means the attempt failed and the
// caller should fall back to a full fetch.
func diffFetch(ctx context.Context, src Fetcher, name string, entry index.Entry, old []byte, oldM *store.ChunkManifest) ([]byte, *store.ChunkManifest, tsr.ReassembleStats, error) {
	m, err := src.FetchChunkManifestCtx(ctx, name)
	if err != nil {
		return nil, nil, tsr.ReassembleStats{}, err
	}
	// Root the manifest in the signed entry before trusting its shape;
	// the size check also bounds what reassembly allocates.
	if m.PackageHash != entry.Hash || m.TotalSize != entry.Size {
		return nil, nil, tsr.ReassembleStats{}, fmt.Errorf("edge: %s: chunk manifest does not match the signed index entry", name)
	}
	out, st, err := tsr.ReassembleChunks(m, old, oldM, func(off, length int64) ([]byte, error) {
		return fetchRange(ctx, src, name, off, length, entry.ETag())
	})
	return out, m, st, err
}

// previousCached returns verified bytes of an older generation of name
// still held in the cache — the diff base for a differential pull —
// and their content hash. The retained generation history (the same
// window the delta endpoint serves from) maps the name to its previous
// content hashes.
func (rep *Replica) previousCached(name string, entry index.Entry) ([]byte, [32]byte) {
	st := rep.served.Load()
	if st == nil {
		return nil, [32]byte{}
	}
	cache := rep.store()
	for i := len(st.History) - 1; i >= 0; i-- {
		old, err := st.History[i].Index.Lookup(name)
		if err != nil || old.Hash == entry.Hash {
			continue
		}
		raw, err := cache.Get(cacheKey(old.Hash))
		if err != nil || !old.Matches(raw) {
			continue
		}
		return raw, old.Hash
	}
	return nil, [32]byte{}
}

// pullPackage fetches one package from the origin for the pull-through
// cache: differentially against a cached previous generation, falling
// back to a full fetch on any differential failure. Whichever bytes
// come back are checked against the entry once, and returned only when
// they match. A differential pull that matched seeds its manifest, so
// the /chunks request that usually follows it cuts nothing.
func (rep *Replica) pullPackage(ctx context.Context, name string, entry index.Entry) ([]byte, error) {
	if old, base := rep.previousCached(name, entry); old != nil {
		out, m, st, err := diffFetch(ctx, rep.Origin, name, entry, old, rep.manifests.Lookup(name, base))
		if err == nil && entry.Matches(out) {
			rep.manifests.Seed(name, m)
			rep.stats.diffPulls.Add(1)
			rep.stats.diffBytesReused.Add(st.BytesReused)
			rep.stats.diffBytesFetched.Add(st.BytesFetched)
			return out, nil
		}
		rep.stats.diffFallbacks.Add(1)
	}
	pulled, err := rep.Origin.FetchPackageCtx(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("edge: pull-through %s: %w", name, err)
	}
	rep.stats.originPackages.Add(1)
	if !entry.Matches(pulled) {
		return nil, fmt.Errorf("edge: origin served wrong bytes for %s (not cached)", name)
	}
	return pulled, nil
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
