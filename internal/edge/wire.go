package edge

import (
	"context"
	"errors"
	"fmt"

	"tsr/internal/index"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// Wire efficiency at the edge tier (ROADMAP item 4): chunk-aware
// differential pull-through sync, chunk-manifest + byte-range serving
// (so edges chain behind edges and clients diff against them exactly
// like against the origin), and streaming verified serving off the
// package cache. The trust model is the replica's usual one — nothing
// here is trusted: manifests are transfer metadata, and every
// reassembled package must hash to the signed index entry before it is
// cached or served.

// errDiffUnsupported: the upstream does not expose chunk
// manifest/range fetches — not a failure, just no differential path.
var errDiffUnsupported = errors.New("edge: upstream does not support differential fetch")

// The chunk-manifest and byte-range fetches travel through an Origin
// or Fetcher by the same optional interface upgrade as the *Ctx
// methods: *tsr.Repo, *tsr.Client, and *Replica all expose them, while
// plain test doubles simply do not diff. supported=false means the
// upstream has no differential surface at all.
func originFetchChunkManifest(ctx context.Context, o any, name string) (m *store.ChunkManifest, supported bool, err error) {
	if c, ok := o.(interface {
		FetchChunkManifestCtx(context.Context, string) (*store.ChunkManifest, error)
	}); ok {
		m, err = c.FetchChunkManifestCtx(ctx, name)
		return m, true, err
	}
	if c, ok := o.(interface {
		FetchChunkManifest(string) (*store.ChunkManifest, error)
	}); ok {
		m, err = c.FetchChunkManifest(name)
		return m, true, err
	}
	return nil, false, nil
}

func originFetchPackageRange(ctx context.Context, o any, name string, off, length int64, etag string) (raw []byte, supported bool, err error) {
	// tsr.Client's Ctx variant carries If-Range, so a republish between
	// the manifest fetch and the range fetch yields a detectable full
	// body instead of a spliced range.
	if c, ok := o.(interface {
		FetchPackageRangeCtx(context.Context, string, int64, int64, string) ([]byte, error)
	}); ok {
		raw, err = c.FetchPackageRangeCtx(ctx, name, off, length, etag)
		return raw, true, err
	}
	if c, ok := o.(interface {
		FetchPackageRangeCtx(context.Context, string, int64, int64) ([]byte, error)
	}); ok {
		raw, err = c.FetchPackageRangeCtx(ctx, name, off, length)
		return raw, true, err
	}
	if c, ok := o.(interface {
		FetchPackageRange(string, int64, int64) ([]byte, error)
	}); ok {
		raw, err = c.FetchPackageRange(name, off, length)
		return raw, true, err
	}
	return nil, false, nil
}

// diffFetch reassembles name@entry from the old cached bytes plus the
// upstream's chunk manifest and range fetches, verifying the result
// against the signed entry. errDiffUnsupported means the upstream has
// no differential surface; any other error means the attempt failed
// and the caller should fall back to a full fetch.
func diffFetch(ctx context.Context, src any, name string, entry index.Entry, old []byte) ([]byte, tsr.ReassembleStats, error) {
	var st tsr.ReassembleStats
	m, supported, err := originFetchChunkManifest(ctx, src, name)
	if !supported {
		return nil, st, errDiffUnsupported
	}
	if err != nil {
		return nil, st, err
	}
	// Root the manifest in the signed entry before trusting its shape.
	if m.PackageHash != entry.Hash || m.TotalSize != entry.Size {
		return nil, st, fmt.Errorf("edge: %s: chunk manifest does not match the signed index entry", name)
	}
	out, st, err := tsr.ReassembleChunks(m, old, func(off, length int64) ([]byte, error) {
		raw, supported, err := originFetchPackageRange(ctx, src, name, off, length, entry.ETag())
		if !supported {
			return nil, errDiffUnsupported
		}
		return raw, err
	})
	if err != nil {
		return nil, st, err
	}
	if !entry.Matches(out) {
		return nil, st, fmt.Errorf("edge: %s: differentially reassembled bytes do not match the signed index entry", name)
	}
	return out, st, nil
}

// previousCached returns verified bytes of an older generation of name
// still held in the cache — the diff base for a differential pull.
// The retained generation history (the same window the delta endpoint
// serves from) maps the name to its previous content hashes.
func (rep *Replica) previousCached(name string, entry index.Entry) []byte {
	st := rep.served.Load()
	if st == nil {
		return nil
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
		return raw
	}
	return nil
}

// pullPackage fetches one package from the origin for the pull-through
// cache: differentially against a cached previous generation when the
// origin supports it, falling back to a full verified fetch on any
// differential failure. Returned bytes always match the entry.
func (rep *Replica) pullPackage(ctx context.Context, name string, entry index.Entry) ([]byte, error) {
	if old := rep.previousCached(name, entry); old != nil {
		out, st, err := diffFetch(ctx, rep.Origin, name, entry, old)
		if err == nil {
			rep.stats.diffPulls.Add(1)
			rep.stats.diffBytesReused.Add(st.BytesReused)
			rep.stats.diffBytesFetched.Add(st.BytesFetched)
			return out, nil
		}
		if !errors.Is(err, errDiffUnsupported) {
			rep.stats.diffFallbacks.Add(1)
		}
	}
	pulled, err := originFetchPackage(ctx, rep.Origin, name)
	if err != nil {
		return nil, fmt.Errorf("edge: pull-through %s: %w", name, err)
	}
	rep.stats.originPackages.Add(1)
	if !entry.Matches(pulled) {
		return nil, fmt.Errorf("edge: origin served wrong bytes for %s (not cached)", name)
	}
	return pulled, nil
}

// FetchChunkManifest serves the chunk manifest of a package this
// replica serves — the same surface the origin exposes, so downstream
// replicas and clients diff against an edge exactly like against the
// origin.
func (rep *Replica) FetchChunkManifest(name string) (*store.ChunkManifest, error) {
	return rep.FetchChunkManifestCtx(context.Background(), name)
}

// FetchChunkManifestCtx is FetchChunkManifest under a caller context.
func (rep *Replica) FetchChunkManifestCtx(ctx context.Context, name string) (*store.ChunkManifest, error) {
	entry, err := rep.resolveEntry(name)
	if err != nil {
		return nil, err
	}
	return rep.manifests.Get(name, entry, func() ([]byte, error) { return rep.fetchEntry(ctx, name, entry) })
}

// FetchPackageRange serves length bytes of a package starting at off,
// sliced from verified bytes.
func (rep *Replica) FetchPackageRange(name string, off, length int64) ([]byte, error) {
	return rep.FetchPackageRangeCtx(context.Background(), name, off, length)
}

// FetchPackageRangeCtx is FetchPackageRange under a caller context.
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
// (cache miss, non-streaming store, or a misbehaving replica simulating
// corruption, which needs the buffer to flip its byte).
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
