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

// pulled is what one pull produced, for the caller to count. A pull
// that had a base but did not diff fell back to a full fetch.
type pulled struct {
	raw    []byte              // verified; nil when the pull failed
	based  bool                // the tier held a diff base
	diffed bool                // the bytes were reassembled against it
	ledger tsr.ReassembleStats // the differential pull's byte ledger
	full   bool                // a full fetch returned bytes, matching or not
}

// pull fetches name@entry from src: differentially against the diff
// base the tier's store st holds (storedBase), with a full fetch as the
// fallback for any differential failure. It is the one place a
// downstream tier takes package bytes from an upstream, so the paper's
// guarantee has one enforcement point here: whichever bytes come back
// are checked against the signed entry once, and only bytes that match
// are returned and kept in st (keepPulled). Full-fetch bytes that do
// not match are errWrongBytes. A nil st holds no base and keeps
// nothing; gz says whether the tier serves /chunks, and so keeps a
// manifest's gzip beside its body (see keepPulled). The outcome is
// returned on error too, so the caller counts what the pull did either
// way.
func pull(ctx context.Context, src Fetcher, st store.Store, name string, entry index.Entry, gz bool) (pulled, error) {
	var p pulled
	var old []byte
	var oldM *store.ChunkManifest
	if st != nil {
		old, oldM = storedBase(st, name, entry)
	}
	p.based = old != nil
	if p.based {
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
			p.raw, p.diffed = out, true
			keepPulled(st, name, entry, out, m, gz)
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
	if st != nil {
		keepPulled(st, name, entry, raw, nil, gz)
	}
	return p, nil
}

func baseKey(name string) string { return baseKeyPrefix + name }

// baseRecord is the 40 bytes naming the version of a package the tier
// last verified: its content hash, then its size as 8 big-endian bytes.
func baseRecord(entry index.Entry) []byte {
	return store.AppendUint64(append(make([]byte, 0, 40), entry.Hash[:]...), uint64(entry.Size))
}

func decodeBaseRecord(rec []byte) (entry index.Entry, ok bool) {
	r := store.NewRecord(rec)
	hash, size := r.Bytes(len(entry.Hash)), r.Uint64()
	if r.Err() != nil || r.Len() != 0 {
		return entry, false
	}
	return index.Entry{Hash: [32]byte(hash), Size: int64(size)}, true
}

// storedBase is the diff base st holds for name@entry: the verified
// bytes (tsr.GetVerified, a read-only view) of the version name's base
// record names, unless that is entry, and the manifest stored beside
// them when it decodes and names that version's hash and size. A
// manifest that does not is dropped, and reassembly re-cuts the base; a
// record that does not decode, or whose bytes are gone, means a full
// fetch, and one whose bytes are gone is dropped with their manifest.
func storedBase(st store.Store, name string, entry index.Entry) ([]byte, *store.ChunkManifest) {
	rec, err := st.Get(baseKey(name))
	if err != nil {
		return nil, nil
	}
	base, ok := decodeBaseRecord(rec)
	if !ok || base.Hash == entry.Hash {
		return nil, nil
	}
	key := cacheKey(base.Hash)
	manifestKey := key + tsr.ManifestSuffix
	old, ok := tsr.GetVerified(st, key, base)
	if !ok {
		_ = st.Delete(baseKey(name))
		_ = st.Delete(manifestKey)
		return nil, nil
	}
	blob, err := st.Get(manifestKey)
	if err != nil {
		return old, nil
	}
	if _, m, err := tsr.DecodeManifestBlob(blob); err == nil && m.PackageHash == base.Hash && m.TotalSize == base.Size {
		return old, m
	}
	_ = st.Delete(manifestKey)
	return old, nil
}

// keepPulled stores a verified pull in st, which takes ownership of
// raw: the bytes, then the manifest m when the pull diffed (every chunk
// of it was checked against raw, see tsr.ReassembleChunks), then name's
// base record, so a record never names bytes not written first. Bytes
// the store declines (larger than its whole budget) get neither. The
// manifest is stored with its gzip when gz is set, for an edge that
// serves it; a client only reads the body, as its next diff base.
func keepPulled(st store.Store, name string, entry index.Entry, raw []byte, m *store.ChunkManifest, gz bool) {
	key := cacheKey(entry.Hash)
	_ = st.Put(key, raw)
	if _, err := st.Stat(key); err != nil {
		return
	}
	if m != nil {
		_ = st.Put(key+tsr.ManifestSuffix, tsr.EncodeManifestBlob(name, m, gz))
	}
	_ = st.Put(baseKey(name), baseRecord(entry))
}

// pullPackage is the edge's miss path: pull from the origin against the
// cache's diff base and count the outcome. A differential pull stores
// the manifest it checked, so the /chunks request that usually follows
// it cuts nothing.
func (rep *Replica) pullPackage(ctx context.Context, name string, entry index.Entry) ([]byte, error) {
	p, err := pull(ctx, rep.Origin, rep.store(), name, entry, true)
	switch {
	case p.diffed:
		rep.stats.diffPulls.Add(1)
		rep.stats.diffBytesReused.Add(p.ledger.BytesReused)
		rep.stats.diffBytesFetched.Add(p.ledger.BytesFetched)
	case p.based:
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
	blob, _, err := rep.FetchManifestBlobCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	_, m, err := tsr.DecodeManifestBlob(blob)
	return m, err
}

// FetchManifestBlobCtx returns the package's chunk manifest as stored
// beside its cached bytes (tsr.StoredManifest) — by the differential
// pull that fetched them, or cut from them on the first request — with
// the ETag of the entry it describes.
func (rep *Replica) FetchManifestBlobCtx(ctx context.Context, name string) ([]byte, string, error) {
	entry, err := rep.resolveEntry(name)
	if err != nil {
		return nil, "", err
	}
	blob, err := tsr.StoredManifest(rep.store(), cacheKey(entry.Hash), name, entry, func() ([]byte, error) {
		return rep.fetchEntry(ctx, name, entry)
	})
	if err != nil {
		return nil, "", err
	}
	return blob, entry.ETag(), nil
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
