package tsr

import (
	"bytes"
	"context"
	"io"
	"time"

	"tsr/internal/store"
)

// Origin-side wire efficiency: chunk manifests for differential sync,
// byte-range reads, and streaming package serving, over the helpers the
// edge tier shares (read.go). All of it is derived from — and
// re-verified against — the published snapshot's signed index; nothing
// here adds trusted state.

// FetchChunkManifestCtx returns the chunk manifest of a served package
// (see FetchManifestBlobCtx).
func (r *Repo) FetchChunkManifestCtx(ctx context.Context, name string) (*store.ChunkManifest, error) {
	blob, _, err := r.FetchManifestBlobCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	_, m, err := DecodeManifestBlob(blob)
	return m, err
}

// FetchManifestBlobCtx returns the package's chunk manifest as stored
// beside its sanitized bytes (StoredManifest), cut from them on the
// first request for the version, with the ETag of the entry it
// describes.
func (r *Repo) FetchManifestBlobCtx(ctx context.Context, name string) ([]byte, string, error) {
	snap := r.served.Load()
	if snap == nil {
		return nil, "", ErrNotInitialized
	}
	entry, err := snap.Index.Lookup(name)
	if err != nil {
		return nil, "", err
	}
	key := r.sanitizedKey(name, entry.Hash)
	blob, err := StoredManifest(r.svc.cfg.Store, key, name, entry, func() ([]byte, error) {
		// A cut racing a publish may store the manifest of a retired
		// generation: the next refresh reconciles it like any other
		// serving-path write.
		r.noteServedWrite(key + ManifestSuffix)
		raw, _, err := r.FetchPackageTracedCtx(ctx, name)
		return raw, err
	})
	if err != nil {
		return nil, "", err
	}
	r.totals.manifestReads.Add(1)
	return blob, entry.ETag(), nil
}

// FetchPackageRangeCtx returns length bytes of the package starting at
// off, sliced from verified bytes — the in-process origin side of
// chunk-aware edge sync.
func (r *Repo) FetchPackageRangeCtx(ctx context.Context, name string, off, length int64) ([]byte, error) {
	raw, _, err := r.FetchPackageTracedCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	r.totals.rangeReads.Add(1)
	return SliceRange(name, raw, off, length)
}

// PackageStream is one package opened for streaming serving: verified
// bytes, their size, and the result of the resolution that produced
// them.
type PackageStream struct {
	io.ReadCloser
	Size int64
	Res  *FetchResult
}

// OpenPackageCtx opens a package for streaming: when the sanitized
// cache holds the entry, the bytes flow from the store through
// hash-as-you-copy verification (OpenVerified) and a tampered entry is
// dropped so the next request heals via re-sanitization. Every other
// case (cache miss, CacheNone, pinned versions) falls back to the
// buffered — already verified — serve path.
func (r *Repo) OpenPackageCtx(ctx context.Context, name string) (*PackageStream, error) {
	start := time.Now()
	if snap := r.served.Load(); snap != nil && snap.mode == CacheBoth {
		if entry, err := snap.Index.Lookup(name); err == nil {
			if rc, ok := OpenVerified(r.svc.cfg.Store, r.sanitizedKey(name, entry.Hash), entry); ok {
				r.totals.PackageReads.Add(1)
				r.totals.streamedServes.Add(1)
				return &PackageStream{
					ReadCloser: rc,
					Size:       entry.Size,
					Res: &FetchResult{
						From:    ServedSanitizedCache,
						Latency: time.Since(start),
						ETag:    entry.ETag(),
					},
				}, nil
			}
		}
	}
	raw, res, err := r.FetchPackageTracedCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	return BufferedStream(raw, res), nil
}

// BufferedStream wraps already-verified bytes as a PackageStream.
func BufferedStream(raw []byte, res *FetchResult) *PackageStream {
	return &PackageStream{ReadCloser: io.NopCloser(bytes.NewReader(raw)), Size: int64(len(raw)), Res: res}
}
