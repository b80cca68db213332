// Package edge implements the untrusted edge replication tier in front
// of a TSR origin. The TSR design makes trust travel with the data: the
// metadata index is signed inside the origin's enclave and every
// package is content-addressed by that index, so *any* host can serve
// them and be verified end-to-end by the client — exactly like the
// byzantine upstream mirrors the paper models (§3.1). An edge replica
// therefore needs no enclave, no keys, and no trust: it syncs the
// published snapshot from the origin (delta syncs keyed by the index
// ETag, falling back to full fetches), keeps a bounded pull-through
// package cache, and re-exposes the origin's signature headers
// verbatim. It never re-signs anything — a tampering or stale replica
// is detected client-side, and the multi-endpoint FailoverClient
// (client.go) routes around it.
package edge

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"tsr/internal/flight"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/store"
	"tsr/internal/trace"
	"tsr/internal/tsr"
)

// Error sentinels.
var (
	// ErrNotSynced: the replica has not completed a sync yet.
	ErrNotSynced = errors.New("edge: replica not synced yet")
	// ErrOffline: the replica is simulated as down.
	ErrOffline = errors.New("edge: replica offline")
	// ErrNoState: LoadState found no persisted index in the store.
	ErrNoState = errors.New("edge: no persisted index state")
)

// Origin is the upstream a replica syncs from: a *tsr.Repo (in-process
// deployments, experiments), a *tsr.Client (the tsredge daemon
// replicating over HTTP) or another *Replica (edges behind edges) —
// all satisfy it. Every method takes the caller's context, so one
// trace stitches client -> edge -> chained edge -> origin.
type Origin interface {
	Fetcher
	FetchIndexDeltaCtx(ctx context.Context, sinceETag string) (*index.Delta, error)
}

// Behavior selects how a replica (mis)behaves — the same adversary
// classes the mirror model exposes, because an edge replica is exactly
// as untrusted as a mirror.
type Behavior int

const (
	// Honest replicas sync and serve faithfully.
	Honest Behavior = iota
	// Freeze replicas stop syncing and replay their current (validly
	// signed, increasingly stale) snapshot forever.
	Freeze
	// Corrupt replicas serve the current index but flip bits in
	// package bodies.
	Corrupt
	// Offline replicas fail every request.
	Offline
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case Freeze:
		return "freeze"
	case Corrupt:
		return "corrupt"
	case Offline:
		return "offline"
	default:
		return fmt.Sprintf("Behavior(%d)", int(b))
	}
}

// DefaultCacheBudget bounds the pull-through package cache when the
// replica does not set one.
const DefaultCacheBudget = 64 << 20

// Replica is one edge replica of a single TSR tenant repository.
type Replica struct {
	// RepoID is the tenant repository this replica serves.
	RepoID string
	// Origin is the upstream to sync from.
	Origin Origin
	// Continent locates the replica for the latency model.
	Continent netsim.Continent
	// TrustRing optionally holds the origin repository's public signing
	// key. A replica that has it self-verifies every synced index — a
	// broken origin (or a middlebox) is then detected at sync time
	// instead of at the clients. The replica works without it: it is an
	// untrusted cache, and clients verify end-to-end regardless.
	TrustRing *keys.Ring
	// CacheBudget bounds the package cache in bytes (default
	// DefaultCacheBudget). Only consulted when Cache is nil.
	CacheBudget int64
	// Cache is the replica's blob store — the shared content-addressed
	// abstraction of internal/store. Nil defaults to a byte-budgeted
	// in-memory store. Give it a disk store (store.OpenFS, the tsredge
	// -data-dir flag) and the package cache survives restarts: cached
	// bytes are hash-verified against the signed index before every
	// serve, so stale or tampered disk degrades to a pull-through miss,
	// exactly like the in-memory case.
	Cache store.Store
	// PersistIndex additionally journals the last-synced signed index
	// into Cache on every publish; LoadState restores it on boot so a
	// restarted replica serves immediately and resumes DELTA sync
	// instead of re-fetching the full index.
	PersistIndex bool

	// syncMu serializes syncs. It is NEVER held while serving: the
	// origin round trips a sync performs happen under syncMu alone, so
	// a slow origin cannot block package requests.
	syncMu sync.Mutex
	// floor is the freshness floor of the served generation (see
	// admit). Guarded by syncMu.
	floor index.Floor
	// cacheOnce guards the lazy default for Cache.
	cacheOnce sync.Once

	// pulls coalesces concurrent origin pulls for the same content
	// hash: a flash crowd of N cold misses for one package costs ONE
	// FetchPackage against the origin, and the N-1 followers share the
	// verified bytes. syncs does the same for Sync storms (a burst of
	// POST /sync collapses into one delta fetch).
	pulls flight.Group[[]byte]
	syncs flight.Group[struct{}]

	// served is the replica's published read state — the same
	// tsr.Published value the origin's snapshot carries, delta window
	// included — swapped atomically: reads never wait on a running sync.
	served   atomic.Pointer[tsr.Published]
	behavior atomic.Int32
	stats    replicaCounters
}

// replicaCounters are the cumulative counters behind Stats.
type replicaCounters struct {
	tsr.ReadCounters                                       // serving tier, shared with the origin
	syncs, deltaSyncs, fullSyncs, noopSyncs, fullFallbacks atomic.Int64
	packageHits, originPackages                            atomic.Int64
	coalescedPulls, coalescedSyncs                         atomic.Int64
	// Wire efficiency: differential pull-throughs, their byte ledger,
	// and packages served streaming off the cache.
	diffPulls, diffFallbacks          atomic.Int64
	diffBytesReused, diffBytesFetched atomic.Int64
	streamedServes                    atomic.Int64
}

// Stats is a point-in-time snapshot of a replica's counters.
type Stats struct {
	// Sync tier.
	Syncs         int64 `json:"syncs"`          // Sync calls that contacted the origin
	DeltaSyncs    int64 `json:"delta_syncs"`    // syncs answered by an applied delta
	FullSyncs     int64 `json:"full_syncs"`     // syncs that transferred the full index
	NoopSyncs     int64 `json:"noop_syncs"`     // syncs finding the replica current
	FullFallbacks int64 `json:"full_fallbacks"` // delta attempts that fell back to full fetch
	// Serving tier.
	IndexReads     int64 `json:"index_reads"`
	PackageReads   int64 `json:"package_reads"`
	PackageHits    int64 `json:"package_hits"`    // served from the local cache
	OriginPackages int64 `json:"origin_packages"` // pull-through misses forwarded to the origin
	NotModified    int64 `json:"not_modified"`
	// Coalescing tier: requests that shared another request's work
	// instead of duplicating it (a flash crowd of N cold misses costs
	// 1 origin pull + N-1 coalesced pulls).
	CoalescedPulls int64 `json:"coalesced_pulls"`
	CoalescedSyncs int64 `json:"coalesced_syncs"`
	// DeltaReads counts index-delta requests this replica answered for
	// downstream replicas/clients.
	DeltaReads int64 `json:"delta_reads"`
	// Wire-efficiency tier: pull-through misses satisfied differentially
	// (only changed chunks fetched from the origin), failed differential
	// attempts that degraded to a full fetch, the byte ledger of the
	// differential path, and packages served streaming off the cache
	// instead of buffered whole.
	DiffPulls        int64 `json:"diff_pulls"`
	DiffFallbacks    int64 `json:"diff_fallbacks"`
	DiffBytesReused  int64 `json:"diff_bytes_reused"`
	DiffBytesFetched int64 `json:"diff_bytes_fetched"`
	StreamedServes   int64 `json:"streamed_serves"`
	// Cache occupancy.
	CacheBytes   int64 `json:"cache_bytes"`
	CacheEntries int   `json:"cache_entries"`
	Evictions    int64 `json:"evictions"`
	// Published generation.
	Sequence uint64 `json:"sequence"`
	ETag     string `json:"etag"`
}

// SetBehavior switches the replica's behavior.
func (rep *Replica) SetBehavior(b Behavior) { rep.behavior.Store(int32(b)) }

// Behavior returns the current behavior.
func (rep *Replica) Behavior() Behavior { return Behavior(rep.behavior.Load()) }

// Stats returns the cumulative counters.
func (rep *Replica) Stats() Stats {
	s := Stats{
		Syncs:          rep.stats.syncs.Load(),
		DeltaSyncs:     rep.stats.deltaSyncs.Load(),
		FullSyncs:      rep.stats.fullSyncs.Load(),
		NoopSyncs:      rep.stats.noopSyncs.Load(),
		FullFallbacks:  rep.stats.fullFallbacks.Load(),
		IndexReads:     rep.stats.IndexReads.Load(),
		PackageReads:   rep.stats.PackageReads.Load(),
		PackageHits:    rep.stats.packageHits.Load(),
		OriginPackages: rep.stats.originPackages.Load(),
		NotModified:    rep.stats.NotModified.Load(),
		CoalescedPulls: rep.stats.coalescedPulls.Load(),
		CoalescedSyncs: rep.stats.coalescedSyncs.Load(),
		DeltaReads:     rep.stats.DeltaReads.Load(),

		DiffPulls:        rep.stats.diffPulls.Load(),
		DiffFallbacks:    rep.stats.diffFallbacks.Load(),
		DiffBytesReused:  rep.stats.diffBytesReused.Load(),
		DiffBytesFetched: rep.stats.diffBytesFetched.Load(),
		StreamedServes:   rep.stats.streamedServes.Load(),
	}
	cs := rep.store().Stats()
	s.CacheBytes = cs.Bytes
	s.CacheEntries = cs.Entries
	s.Evictions = cs.Evictions
	if st := rep.served.Load(); st != nil {
		s.Sequence = st.Index.Sequence
		s.ETag = st.ETag
	}
	return s
}

// SyncCtx brings the replica up to date with its origin: the full
// signed index on first contact, then deltas keyed by the current ETag.
// Every path self-verifies — an applied delta must reproduce the
// advertised signed index byte-for-byte (index.Delta.Apply checks the
// ETag), and the result must pass admit. Any delta failure falls back
// to a full fetch; a Freeze replica returns immediately and keeps
// replaying its pinned state.
//
// Concurrent syncs coalesce: callers arriving while a sync is in
// flight wait for it and share its result instead of queueing another
// origin round trip — a POST /sync storm (every client of a stale edge
// poking it at once) collapses into one delta fetch. The sync runs as
// an "edge.sync" span whose children are the origin round trips, and a
// coalesced caller links its span to the leader's instead of
// pretending it contacted the origin itself.
func (rep *Replica) SyncCtx(ctx context.Context) (err error) {
	if rep.Behavior() == Freeze {
		return nil
	}
	ctx, sp := trace.Start(ctx, "edge.sync")
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	sp.SetTier("edge")
	_, leaderCtx, leader, err := rep.syncs.DoCtx(ctx, "sync", func(ctx context.Context) (struct{}, error) {
		return struct{}{}, rep.syncOnce(ctx)
	})
	if !leader {
		rep.stats.coalescedSyncs.Add(1)
		sp.LinkCoalesced(trace.SpanFromContext(leaderCtx))
	}
	return err
}

// syncOnce performs one origin sync (the leader's side of SyncCtx).
func (rep *Replica) syncOnce(ctx context.Context) error {
	rep.syncMu.Lock()
	defer rep.syncMu.Unlock()
	cur := rep.served.Load()
	rep.stats.syncs.Add(1)
	if cur == nil {
		return rep.fullSync(ctx)
	}
	d, err := rep.Origin.FetchIndexDeltaCtx(ctx, cur.ETag)
	if errors.Is(err, index.ErrDeltaUnchanged) {
		rep.stats.noopSyncs.Add(1)
		return nil
	}
	if err == nil {
		var signed *index.Signed
		var ix *index.Index
		if signed, ix, err = d.Apply(cur.Index); err == nil {
			if err = rep.admit(signed, ix); err == nil {
				rep.stats.deltaSyncs.Add(1)
				return nil
			}
		}
	}
	// Delta unavailable (base older than the origin's retained
	// history), corrupt, or refused by admit: full fetch.
	rep.stats.fullFallbacks.Add(1)
	return rep.fullSync(ctx)
}

// fullSync fetches and publishes the complete signed index. Caller
// holds syncMu (not mu).
func (rep *Replica) fullSync(ctx context.Context) error {
	signed, _, err := rep.Origin.FetchIndexTaggedCtx(ctx)
	if err != nil {
		return fmt.Errorf("edge: sync: %w", err)
	}
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		return fmt.Errorf("edge: sync: %w", err)
	}
	if err := rep.admit(signed, ix); err != nil {
		return fmt.Errorf("edge: sync: %w", err)
	}
	rep.stats.fullSyncs.Add(1)
	return nil
}

// admit publishes a synced index if the replica may serve it: the
// origin signature must check when the replica holds the ring, and the
// index must pass the floor step of index.AcceptIndex — never older
// than the generation served (index.ErrStale, an origin replay), nor a
// second body at its sequence (index.ErrFork). The replica is an
// untrusted cache, so it may stay ring-less; clients run the whole
// rule. Caller holds syncMu.
func (rep *Replica) admit(signed *index.Signed, ix *index.Index) error {
	if rep.TrustRing != nil {
		if err := signed.VerifySignature(rep.TrustRing); err != nil {
			return err
		}
	}
	floor, err := rep.floor.Step(ix, signed)
	if err != nil {
		return err
	}
	rep.floor = floor
	rep.publish(signed, ix)
	return nil
}

// publish swaps in the new state, prunes cached packages the new index
// no longer references, and (under PersistIndex) journals the signed
// index so a restart resumes from this generation. Caller holds syncMu.
func (rep *Replica) publish(signed *index.Signed, ix *index.Index) {
	// The locally computed ETag is by construction what the origin
	// serves for this generation (the digest of the signed form), so
	// delta syncs and client If-None-Match revalidation agree on it. The
	// generation history is carried forward, so this replica can answer
	// delta requests from downstreams exactly like the origin.
	next := tsr.Publish(rep.served.Load(), signed, ix)
	rep.served.Store(&next)
	st := rep.store()
	// The keep-set spans every retained generation, not just the new
	// index: bytes of a just-superseded version are the diff bases the
	// base records name, so pruning them on publish would forfeit
	// exactly the transfer the chunked sync saves. They age out, with
	// their manifests, when their generation leaves the delta window (or
	// by LRU budget).
	keep := make(map[string]struct{}, len(ix.Entries))
	for _, gen := range next.History {
		for _, e := range gen.Index.Entries {
			keep[cacheKey(e.Hash)] = struct{}{}
		}
	}
	var stale []string
	_ = st.Iterate(func(info store.Info) bool {
		switch {
		case strings.HasPrefix(info.Key, pkgKeyPrefix):
			if _, ok := keep[strings.TrimSuffix(info.Key, tsr.ManifestSuffix)]; !ok {
				stale = append(stale, info.Key)
			}
		case strings.HasPrefix(info.Key, baseKeyPrefix): // pinned: pruned with its name
			if _, err := ix.Lookup(strings.TrimPrefix(info.Key, baseKeyPrefix)); err != nil {
				stale = append(stale, info.Key)
			}
		}
		return true
	})
	for _, key := range stale {
		_ = st.Delete(key)
	}
	if rep.PersistIndex {
		// Best-effort: a failed journal write costs a full re-fetch on
		// the next restart, nothing else.
		_ = st.Put(replicaStateKey, encodeReplicaState(signed))
	}
}

// Store keys: packages are content-addressed under pkg/, each with its
// chunk manifest beside it (tsr.ManifestSuffix); base/ records each
// name's diff base (see pull); the journaled last-synced index lives
// under meta/. meta/ and base/ are pinned — never evicted by the
// package cache's byte budget, which a 40-byte record cannot help.
const (
	pkgKeyPrefix    = "pkg/"
	baseKeyPrefix   = "base/"
	metaKeyPrefix   = "meta/"
	replicaStateKey = metaKeyPrefix + "index"
)

// StateKey is the store key of the journaled last-synced signed index
// (see PersistIndex). Exported so harnesses that simulate crash,
// restart, and rollback of an edge data dir can capture and replay the
// journal without duplicating the key string.
const StateKey = replicaStateKey

// cacheKey addresses a cached package purely by content.
func cacheKey(hash [32]byte) string { return pkgKeyPrefix + hex.EncodeToString(hash[:]) }

// encodeReplicaState frames a signed index for the journal entry.
func encodeReplicaState(signed *index.Signed) []byte {
	var buf bytes.Buffer
	store.WriteChunk(&buf, []byte(signed.KeyName))
	store.WriteChunk(&buf, signed.Sig)
	store.WriteChunk(&buf, signed.Raw)
	return buf.Bytes()
}

// decodeReplicaState parses a journal entry back into a signed index.
func decodeReplicaState(raw []byte) (*index.Signed, error) {
	buf := bytes.NewReader(raw)
	var chunks [][]byte
	for i := 0; i < 3; i++ {
		chunk, err := store.ReadChunk(buf)
		if err != nil {
			return nil, fmt.Errorf("edge: persisted index state: %w", err)
		}
		chunks = append(chunks, chunk)
	}
	return &index.Signed{KeyName: string(chunks[0]), Sig: chunks[1], Raw: chunks[2]}, nil
}

// LoadState restores the replica's last-synced signed index from its
// store (journaled under PersistIndex), so a restarted tsredge serves
// immediately and its next SyncCtx resumes with a delta from the restored
// generation instead of a full index fetch. The loaded bytes are as
// untrusted as the rest of the store: they must decode, they must pass
// admit, and clients verify end-to-end regardless. A rolled-back edge data dir simply restores an older
// generation — the next delta sync moves it forward, and the
// FailoverClient's sequence floor protects clients meanwhile.
func (rep *Replica) LoadState() error {
	raw, err := rep.store().Get(replicaStateKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoState, err)
	}
	signed, err := decodeReplicaState(raw)
	if err != nil {
		return err
	}
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		return fmt.Errorf("edge: persisted index state: %w", err)
	}
	rep.syncMu.Lock()
	defer rep.syncMu.Unlock()
	switch err := rep.admit(signed, ix); {
	case errors.Is(err, index.ErrStale):
		return nil // already serving a newer generation
	case err != nil:
		return fmt.Errorf("edge: persisted index state: %w", err)
	}
	return nil
}

// ETag returns the replica's current index ETag ("" before first sync).
func (rep *Replica) ETag() string {
	if st := rep.served.Load(); st != nil {
		return st.ETag
	}
	return ""
}

// Current implements tsr.ReadView: the published generation every read
// answers from, or why the replica cannot answer. Offline fails every
// request, and before the first sync there is nothing to serve.
func (rep *Replica) Current() (*tsr.Published, error) {
	if rep.Behavior() == Offline {
		return nil, ErrOffline
	}
	st := rep.served.Load()
	if st == nil {
		return nil, ErrNotSynced
	}
	return st, nil
}

// ReadCounters implements tsr.ReadView.
func (rep *Replica) ReadCounters() *tsr.ReadCounters { return &rep.stats.ReadCounters }

// FetchIndexTaggedCtx serves the replica's current signed index and
// ETag as an "edge.index" span. The index is served exactly as the
// origin published it — same bytes, same key name, same signature.
func (rep *Replica) FetchIndexTaggedCtx(ctx context.Context) (_ *index.Signed, _ string, err error) {
	_, sp := trace.Start(ctx, "edge.index")
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	sp.SetTier("edge")
	st, err := rep.Current()
	if err != nil {
		return nil, "", err
	}
	rep.stats.IndexReads.Add(1)
	return st.Signed.Clone(), st.ETag, nil
}

// FetchIndexDeltaCtx serves the delta from a retained generation to the
// replica's current one as an "edge.index_delta" span — the same
// endpoint the origin exposes, so a tsr.Client or a downstream replica
// pointed at this edge delta-syncs instead of re-fetching the full
// index every time. The origin's signature over the NEW index rides
// along in the Delta, so the edge still never signs anything. With
// this, *Replica implements the full Origin interface: edges can fan
// out behind edges. The two expected negative outcomes — base already
// current, base outside the retained window — are not recorded as span
// errors: they are protocol answers, not failures.
func (rep *Replica) FetchIndexDeltaCtx(ctx context.Context, sinceETag string) (_ *index.Delta, err error) {
	_, sp := trace.Start(ctx, "edge.index_delta")
	defer func() {
		if err != nil && !errors.Is(err, index.ErrDeltaUnchanged) && !errors.Is(err, index.ErrNoDelta) {
			sp.SetError(err)
		}
		sp.End()
	}()
	sp.SetTier("edge")
	st, err := rep.Current()
	if err != nil {
		return nil, err
	}
	d, err := st.Delta(sinceETag)
	rep.stats.NoteDelta(err)
	return d, err
}

// FetchPackageCtx serves from the local cache, pulling through from the
// origin on a miss. Downloaded bytes are verified against the index
// entry hash BEFORE they are cached or served, so a corrupt origin path
// cannot poison the cache; cached bytes are re-verified on every hit,
// so local disk tampering degrades to a pull-through miss instead of
// serving garbage. The returned bytes are read-only: they may be the
// cache entry itself.
//
// The fetch runs as an "edge.package" span: a cache hit is one cheap
// span, a pull-through miss hangs the origin round trip under it, and a
// coalesced miss links to the leader's span instead of claiming an
// origin pull of its own.
func (rep *Replica) FetchPackageCtx(ctx context.Context, name string) (_ []byte, err error) {
	ctx, sp := trace.Start(ctx, "edge.package")
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	sp.SetTier("edge")
	sp.SetAttr("package", name)
	raw, _, err := rep.FetchPackageTracedCtx(ctx, name)
	return raw, err
}

// resolveEntry loads the published state once and resolves a package's
// index entry in it. Every byte-producing read drives its fetch and the
// ETag it reports from one such resolution, so the tag always describes
// the bytes served even when a sync publishes a new generation
// mid-request.
func (rep *Replica) resolveEntry(name string) (index.Entry, error) {
	st, err := rep.Current()
	if err != nil {
		return index.Entry{}, err
	}
	return st.Index.Lookup(name)
}

// PackageETag resolves a package to its strong ETag (the content hash
// from the signed index) without touching its bytes.
func (rep *Replica) PackageETag(name string) (string, error) {
	entry, err := rep.resolveEntry(name)
	if err != nil {
		return "", err
	}
	return entry.ETag(), nil
}

// fetchEntry serves the bytes for one resolved index entry: local
// cache first, coalesced origin pull-through on a miss. Because the
// cache key and the flight key are both the content hash, a flash
// crowd of N concurrent cold misses for the same package performs
// exactly one origin pull; the N-1 followers share the verified bytes
// (and count as coalesced pulls, not origin pulls).
func (rep *Replica) fetchEntry(ctx context.Context, name string, entry index.Entry) ([]byte, error) {
	rep.stats.PackageReads.Add(1)
	key := cacheKey(entry.Hash)
	sp := trace.SpanFromContext(ctx)

	// A tampered or truncated cache entry is dropped by the read and
	// re-pulled.
	cache := rep.store()
	raw, hit := tsr.GetVerified(cache, key, entry)
	if hit {
		rep.stats.packageHits.Add(1)
		sp.SetAttr("served_from", "cache")
	} else {
		var leaderCtx context.Context
		var leader bool
		var err error
		raw, leaderCtx, leader, err = rep.pulls.DoCtx(ctx, key, func(ctx context.Context) ([]byte, error) {
			// Re-check the cache inside the flight: a miss that queued
			// behind a completed fill (the flight ended, the bytes
			// landed) must not pull the origin again.
			if cached, ok := tsr.GetVerified(cache, key, entry); ok {
				return cached, nil
			}
			// pullPackage caches only bytes that match the entry, so
			// nothing unverified lands in the cache.
			return rep.pullPackage(ctx, name, entry)
		})
		if err != nil {
			return nil, err
		}
		if leader {
			sp.SetAttr("served_from", "origin")
		} else {
			rep.stats.coalescedPulls.Add(1)
			// The follower's span did not pull anything: link it to the
			// leader span that did.
			sp.SetAttr("served_from", "coalesced")
			sp.LinkCoalesced(trace.SpanFromContext(leaderCtx))
		}
	}
	// raw is the verified slice the cache and coalesced waiters share,
	// returned as is under the store's read-only contract. Only the
	// Corrupt simulation copies, because it has to flip a byte.
	if rep.Behavior() == Corrupt && len(raw) > 0 {
		out := append([]byte(nil), raw...)
		out[len(out)/2] ^= 0xFF
		return out, nil
	}
	return raw, nil
}

// store returns the replica's blob store, lazily defaulting to a
// byte-budgeted in-memory store. The meta/ prefix (the persisted index
// journal) is pinned: package churn must not LRU-evict the journal,
// and an index larger than the package budget must still persist —
// otherwise a restart silently loses the warm resume the journal
// exists for. So are the base records.
func (rep *Replica) store() store.Store {
	rep.cacheOnce.Do(func() {
		if rep.Cache == nil {
			budget := rep.CacheBudget
			if budget <= 0 {
				budget = DefaultCacheBudget
			}
			rep.Cache = store.NewMemBudget(budget)
		}
		rep.Cache.Pin(metaKeyPrefix)
		rep.Cache.Pin(baseKeyPrefix)
	})
	return rep.Cache
}
