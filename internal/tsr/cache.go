package tsr

import (
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"tsr/internal/store"
)

// The content-addressed sanitization cache maps (original package
// digest, sanitization plan hash) to the size and hash of the sanitized
// output. Because sanitization is deterministic, the pair fully
// determines the result: an unchanged package under an unchanged plan
// can re-enter the local index without being re-sanitized — or even
// re-read — regardless of how the refresh was triggered (incremental
// update, forced replan, restart).
//
// Entries live in the untrusted Store, so they are sealed to the
// enclave identity (AES-GCM): a root adversary can delete entries
// (a denial of cache, degrading to re-sanitization) but cannot forge or
// swap them — the cache key is embedded in the sealed payload and
// re-checked after unsealing, so an entry copied under a different key
// is rejected.

// sanCacheKey returns the Store key of the sanitization cache entry for
// one (original digest, plan hash) pair.
func (r *Repo) sanCacheKey(orig, plan [32]byte) string {
	return r.ID + "/sancache/" + hex.EncodeToString(orig[:]) + "-" + hex.EncodeToString(plan[:])
}

// cacheEntry is the sealed payload of one sanitization cache entry.
type cacheEntry struct {
	// Key echoes the Store key the entry was sealed under, defeating
	// entry-swapping by the untrusted store.
	Key string
	// Size and Hash describe the sanitized wire bytes; the bytes
	// themselves live under the (also untrusted, index-verified)
	// sanitized package key.
	Size int64
	Hash [32]byte
}

// storeCacheEntry seals and writes one cache entry: chunk(key) +
// size + hash.
func (r *Repo) storeCacheEntry(e cacheEntry) error {
	b := store.AppendChunk(make([]byte, 0, 8+len(e.Key)+8+len(e.Hash)), []byte(e.Key))
	b = store.AppendUint64(b, uint64(e.Size))
	sealed, err := r.svc.Seal(append(b, e.Hash[:]...))
	if err != nil {
		return err
	}
	return r.svc.cfg.Store.Put(e.Key, sealed)
}

// loadCacheEntry reads, unseals and validates the entry stored under
// key. Any failure — absent, tampered, truncated, or swapped from
// another key — is an error; the caller falls back to sanitizing.
func (r *Repo) loadCacheEntry(key string) (cacheEntry, error) {
	sealed, err := r.svc.cfg.Store.Get(key)
	if err != nil {
		return cacheEntry{}, err
	}
	blob, err := r.svc.Unseal(sealed)
	if err != nil {
		return cacheEntry{}, fmt.Errorf("%w: %v", ErrCacheTampered, err)
	}
	rec := store.NewRecord(blob)
	rawKey, size, hash := rec.Chunk(), rec.Uint64(), rec.Bytes(len(cacheEntry{}.Hash))
	if err := rec.Err(); err != nil {
		return cacheEntry{}, fmt.Errorf("tsr: cache entry: %w", err)
	}
	if string(rawKey) != key {
		return cacheEntry{}, fmt.Errorf("%w: cache entry moved from %q", ErrCacheTampered, rawKey)
	}
	return cacheEntry{Key: key, Size: int64(size), Hash: [32]byte(hash)}, nil
}

// counters are the cumulative per-repository counters. They are plain
// atomics — updated by the refresh pipeline and the lock-free serving
// path alike — so reading them never touches Repo.mu: GET /stats stays
// responsive while a cold refresh holds the repository lock.
type counters struct {
	// Refresh pipeline (RefreshStats aggregates).
	refreshes, cacheHits, sanitized, rejected, downloaded, failed atomic.Int64
	// Read tier (snapshot serving path), shared with the edge tier.
	ReadCounters
	// coalescedFills counts serving-path cache fills that shared
	// another in-flight request's download+re-sanitization instead of
	// running their own (flash-crowd coalescing).
	coalescedFills atomic.Int64
	// Wire-efficiency read tier: chunk-manifest reads, byte-range
	// reads, and packages served streaming off the store instead of
	// buffered whole.
	manifestReads, rangeReads, streamedServes atomic.Int64
	// ingested counts operator-registered packages accepted through the
	// batched ingest path (RegisterPackages), including journal replays.
	ingested atomic.Int64
}

// CacheStats are cumulative per-repository counters, exposed over the
// REST API (GET /repos/{id}/stats).
type CacheStats struct {
	// Refreshes counts completed Refresh cycles.
	Refreshes int64 `json:"refreshes"`
	// CacheHits counts packages whose sanitized result was reused from
	// the content-addressed cache instead of being re-sanitized.
	CacheHits int64 `json:"cache_hits"`
	// Sanitized counts fresh (cache-miss) sanitizations.
	Sanitized int64 `json:"sanitized"`
	// Rejected counts packages excluded by policy or sanitization.
	Rejected int64 `json:"rejected"`
	// Downloaded counts mirror downloads.
	Downloaded int64 `json:"downloaded"`
	// Failed counts per-package errors that were surfaced in
	// RefreshStats.Errors without aborting the cycle.
	Failed int64 `json:"failed"`
	// IndexReads and PackageReads count read-tier requests served from
	// the published snapshot (including conditional revalidations).
	IndexReads   int64 `json:"index_reads"`
	PackageReads int64 `json:"package_reads"`
	// NotModified counts If-None-Match revalidations answered with
	// 304 Not Modified by the HTTP layer.
	NotModified int64 `json:"not_modified"`
	// DeltaReads counts index reads answered as a delta (edge replica
	// sync); each is also counted in IndexReads.
	DeltaReads int64 `json:"delta_reads"`
	// CoalescedFills counts package requests that shared a concurrent
	// identical cache fill instead of re-running it (flash-crowd
	// request coalescing on the serving path).
	CoalescedFills int64 `json:"coalesced_fills"`
	// ManifestReads counts chunk-manifest requests (differential sync).
	ManifestReads int64 `json:"manifest_reads"`
	// RangeReads counts byte-range package reads (chunk fetches).
	RangeReads int64 `json:"range_reads"`
	// StreamedServes counts packages served streaming from the store
	// (hash-as-you-copy) instead of buffered whole.
	StreamedServes int64 `json:"streamed_serves"`
	// Ingested counts operator-registered packages accepted through the
	// batched ingest path, including crash-recovery journal replays.
	Ingested int64 `json:"ingested"`
}

// add returns the element-wise sum, for service-level totals.
func (c CacheStats) add(o CacheStats) CacheStats {
	return CacheStats{
		Refreshes:      c.Refreshes + o.Refreshes,
		CacheHits:      c.CacheHits + o.CacheHits,
		Sanitized:      c.Sanitized + o.Sanitized,
		Rejected:       c.Rejected + o.Rejected,
		Downloaded:     c.Downloaded + o.Downloaded,
		Failed:         c.Failed + o.Failed,
		IndexReads:     c.IndexReads + o.IndexReads,
		PackageReads:   c.PackageReads + o.PackageReads,
		NotModified:    c.NotModified + o.NotModified,
		DeltaReads:     c.DeltaReads + o.DeltaReads,
		CoalescedFills: c.CoalescedFills + o.CoalescedFills,
		ManifestReads:  c.ManifestReads + o.ManifestReads,
		RangeReads:     c.RangeReads + o.RangeReads,
		StreamedServes: c.StreamedServes + o.StreamedServes,
		Ingested:       c.Ingested + o.Ingested,
	}
}

// CacheStats returns the cumulative counters. Lock-free: safe to call
// at any rate while a refresh runs.
func (r *Repo) CacheStats() CacheStats {
	return CacheStats{
		Refreshes:      r.totals.refreshes.Load(),
		CacheHits:      r.totals.cacheHits.Load(),
		Sanitized:      r.totals.sanitized.Load(),
		Rejected:       r.totals.rejected.Load(),
		Downloaded:     r.totals.downloaded.Load(),
		Failed:         r.totals.failed.Load(),
		IndexReads:     r.totals.IndexReads.Load(),
		PackageReads:   r.totals.PackageReads.Load(),
		NotModified:    r.totals.NotModified.Load(),
		DeltaReads:     r.totals.DeltaReads.Load(),
		CoalescedFills: r.totals.coalescedFills.Load(),
		ManifestReads:  r.totals.manifestReads.Load(),
		RangeReads:     r.totals.rangeReads.Load(),
		StreamedServes: r.totals.streamedServes.Load(),
		Ingested:       r.totals.ingested.Load(),
	}
}
