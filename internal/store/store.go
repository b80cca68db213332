// Package store provides the content-addressed blob store every TSR
// storage site shares: the origin's untrusted package/sancache tier,
// the edge replicas' pull-through caches, and the sealed-state blobs
// that make a daemon restart warm.
//
// The surface is one interface, Store: the mutable core plus
// streaming, stat, enumeration, occupancy and pinning, which every
// caller uses directly. Two implementations exist. Mem is a sharded
// in-memory store for tests, experiments, and diskless deployments.
// FS is the durable disk-backed store behind `tsrd -data-dir` /
// `tsredge -data-dir`: fan-out subdirectories, atomic
// temp-file+rename writes, size/CRC framing, optional fsync, and a
// boot-time scrub that drops torn or corrupt entries before anything
// reads them.
//
// Neither implementation is trusted. The CRC in the FS framing catches
// crashes and bitrot, not adversaries — a root attacker can rewrite a
// frame and its checksum consistently. Callers therefore re-verify
// everything they read back (content hash against a signed index,
// AES-GCM unsealing for enclave state) exactly as §5.5 of the paper
// demands; the store's own integrity checks only decide whether an
// entry is worth handing back at all.
//
// Both implementations optionally enforce a byte budget: when set, the
// store behaves as a cache and evicts least-recently-used entries
// (tracked by a logical access clock) until the budget holds. Without
// a budget nothing is ever evicted.
package store

import (
	"errors"
	"io"
)

// ErrNotFound is returned by Get and Stat for absent keys — including
// keys whose on-disk entry failed the integrity scrub and was dropped.
var ErrNotFound = errors.New("store: key not found")

// Store is the blob-store surface every storage site uses: the
// mutable core (Put, Get, Delete) plus streaming, stat, enumeration,
// occupancy and pinning. Mem and FS implement all of it, so callers
// call the methods directly and never probe for a narrower store.
//
// Blobs move without defensive copies in either direction. A Get
// result is read-only: it may be the stored value itself, so a caller
// must not write into it. Put takes ownership of data: the caller must
// not write into the slice after handing it over. Neither copy would
// protect anything, since every reader re-verifies what it gets back
// (see the package doc); a later Put, Delete or Tamper of the same key
// replaces the stored value rather than editing it, so a slice a
// caller already holds keeps its bytes.
type Store interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	Delete(key string) error
	Streamer
	Stater
	Iterable
	Monitored
	Pinner
}

// Info describes one stored entry.
type Info struct {
	Key  string
	Size int64
}

// Iterable enumerates a store's entries — what callers use to scrub,
// prune, and rebuild state on boot. The iteration order is
// unspecified. fn returning false stops the walk.
type Iterable interface {
	Iterate(fn func(Info) bool) error
}

// Stater describes an entry without reading its bytes.
type Stater interface {
	Stat(key string) (Info, error)
}

// Streamer hands back an entry as a stream instead of one buffered
// slice — what the daemons' streaming serve path (tsr.OpenVerified) uses
// so large packages never sit fully in memory per request. The stream
// carries the same trust caveat as Get: bytes are NOT verified by the
// store (FS skips even the frame CRC on this path, to stay
// single-pass), so callers MUST hash the stream against the signed
// entry as they copy.
type Streamer interface {
	// Open returns the entry's bytes as a reader plus its size.
	// The reader must be closed; it is independent of later
	// Put/Delete calls on the same key.
	Open(key string) (io.ReadCloser, int64, error)
}

// Stats is a point-in-time occupancy snapshot.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
}

// Monitored reports occupancy.
type Monitored interface {
	Stats() Stats
}

// Pinner exempts a key prefix from a budget-bounded store's cache
// semantics: pinned entries are never LRU-evicted and are stored even
// when they exceed the byte budget. Callers pin
// the small metadata they journal beside bulk cache entries (e.g. an
// edge replica's persisted index) so package churn cannot age it out.
// Pin before the store is shared across goroutines.
type Pinner interface {
	Pin(prefix string)
}

// pinned reports whether key falls under any pinned prefix.
func pinned(prefixes []string, key string) bool {
	for _, p := range prefixes {
		if len(key) >= len(p) && key[:len(p)] == p {
			return true
		}
	}
	return false
}

// lruCandidate is one entry considered for byte-budget eviction.
type lruCandidate struct {
	key   string
	size  int64
	atime uint64
}
