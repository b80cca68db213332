package tsr

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"time"

	"tsr/internal/index"
	"tsr/internal/sanitize"
	"tsr/internal/trace"
)

// snapshot is the immutable published read state of a repository: the
// signed local index plus everything the serving path needs to answer
// requests without touching Repo.mu. Refresh (and RestoreState) build a
// new snapshot off to the side and swap it in with one atomic pointer
// store, so package managers read the previous consistent state for the
// whole 10–25s sanitization cycle — TSR behaves "exactly like a plain
// mirror" (§4.3) even while the trusted pipeline runs. A failed refresh
// returns before publishing and the previous snapshot keeps serving.
//
// Invariant: every field reachable from a snapshot is immutable after
// publication. The refresh path replaces indexes, plan, and maps
// wholesale (never mutates them in place once assigned), and
// publishLocked copies the maps that refresh updates incrementally.
type snapshot struct {
	// Published is the signed local index (the index of sanitized
	// packages) with its ETag and delta window — the same value an edge
	// replica publishes, so the two tiers' read paths cannot drift apart.
	Published
	mode     CacheMode
	upstream *index.Index // verified upstream index the local entries derive from
	plan     *sanitize.Plan
	pinned   map[string]index.Entry // packages serving a previous version after a failed refresh
	rejected map[string]string      // package -> rejection reason
}

// publishLocked builds a snapshot from the current refresh-side state
// and publishes it atomically. Caller holds r.mu. No-op until the first
// successful refresh or restore produces a signed index.
func (r *Repo) publishLocked() {
	if r.local == nil || r.localSig == nil {
		return
	}
	// The retained history rides on the previous snapshot. A republish of
	// the same generation (e.g. SetCacheMode) does not duplicate it.
	var prev *Published
	if cur := r.served.Load(); cur != nil {
		prev = &cur.Published
	}
	snap := &snapshot{
		Published: Publish(prev, r.localSig, r.local),
		mode:      r.mode,
		upstream:  r.upstream,
		plan:      r.plan,
		pinned:    maps.Clone(r.pinned),
		rejected:  maps.Clone(r.rejected),
	}
	r.served.Store(snap)
}

// FetchIndexDeltaCtx returns the delta from the generation published
// under sinceETag to the currently served one — the origin side of edge
// replica delta sync. It is lock-free like the other read paths, and
// runs as an origin-tier span when the context is traced. Returns
// index.ErrDeltaUnchanged when sinceETag IS the current generation, and
// index.ErrNoDelta when the base generation is no longer retained (the
// caller falls back to a full fetch).
func (r *Repo) FetchIndexDeltaCtx(ctx context.Context, sinceETag string) (_ *index.Delta, err error) {
	_, sp := trace.Start(ctx, "origin.index_delta")
	defer func() {
		// 304/404 are protocol answers, not failures.
		if err != nil && !errors.Is(err, index.ErrDeltaUnchanged) && !errors.Is(err, index.ErrNoDelta) {
			sp.SetError(err)
		}
		sp.End()
	}()
	sp.SetTier("origin")
	snap := r.served.Load()
	if snap == nil {
		return nil, ErrNotInitialized
	}
	d, err := snap.Delta(sinceETag)
	r.totals.NoteDelta(err)
	return d, err
}

// FetchIndex implements pkgmgr.Source: serves the signed local index
// from the published snapshot, without taking the repository lock.
func (r *Repo) FetchIndex() (*index.Signed, error) {
	signed, _, err := r.fetchIndexTagged()
	return signed, err
}

// FetchIndexTaggedCtx returns the signed local index together with its
// strong ETag (the quoted hex digest of the signed representation).
// The HTTP layer uses the tag for If-None-Match revalidation. When the
// context is traced, the read runs as an origin-tier span.
func (r *Repo) FetchIndexTaggedCtx(ctx context.Context) (*index.Signed, string, error) {
	_, sp := trace.Start(ctx, "origin.index")
	defer sp.End()
	sp.SetTier("origin")
	signed, etag, err := r.fetchIndexTagged()
	sp.SetError(err)
	return signed, etag, err
}

func (r *Repo) fetchIndexTagged() (*index.Signed, string, error) {
	snap := r.served.Load()
	if snap == nil {
		return nil, "", ErrNotInitialized
	}
	r.totals.IndexReads.Add(1)
	return snap.Signed.Clone(), snap.ETag, nil
}

// IndexETag returns the current index ETag without cloning the index —
// the cheap path for If-None-Match revalidation, where a match means
// the body is never materialized at all.
func (r *Repo) IndexETag() (string, error) {
	p, err := r.Current()
	if err != nil {
		return "", err
	}
	return p.ETag, nil
}

// Current implements ReadView: the published generation, which the read
// routes serve with its memoized wire forms.
func (r *Repo) Current() (*Published, error) {
	snap := r.served.Load()
	if snap == nil {
		return nil, ErrNotInitialized
	}
	return &snap.Published, nil
}

// PackageETag returns the strong ETag of a served package without
// touching its bytes: the quoted hex content hash from the signed
// index. Callers that only revalidate (If-None-Match) skip the cache
// read entirely.
func (r *Repo) PackageETag(name string) (string, error) {
	snap := r.served.Load()
	if snap == nil {
		return "", ErrNotInitialized
	}
	entry, err := snap.Index.Lookup(name)
	if err != nil {
		return "", err
	}
	return entry.ETag(), nil
}

// ReadCounters implements ReadView.
func (r *Repo) ReadCounters() *ReadCounters { return &r.totals.ReadCounters }

// FetchResult describes how a FetchPackage request was served.
type FetchResult struct {
	// From is the origin's provenance; an edge leaves it zero and the
	// read routes do not send it.
	From ServedFrom
	// Latency is the server-side time to produce the bytes: real time
	// for cache reads and sanitization plus modeled download time.
	Latency time.Duration
	// ETag is the strong entity tag of the served bytes (the quoted hex
	// content hash from the signed index).
	ETag string
}

// FetchPackage implements pkgmgr.Source. The returned bytes are
// read-only: they may be the sanitized-cache entry itself.
func (r *Repo) FetchPackage(name string) ([]byte, error) {
	return r.FetchPackageCtx(context.Background(), name)
}

// FetchPackageCtx is FetchPackage under a caller context.
func (r *Repo) FetchPackageCtx(ctx context.Context, name string) ([]byte, error) {
	raw, _, err := r.FetchPackageTracedCtx(ctx, name)
	return raw, err
}

// FetchPackageTracedCtx serves a sanitized package and reports how. It
// reads the published snapshot — never Repo.mu — so requests proceed at
// full speed while a refresh runs. Before returning cached bytes it
// re-verifies them against the in-enclave local index — the §5.5
// defense against cache tampering.
//
// The byte caches are content-addressed per generation, so a refresh
// rewriting the population never invalidates the bytes this snapshot
// references. The one remaining race — a request in flight at the
// publish instant, whose generation the refresh just evicted — is
// resolved by retrying once against the freshly published snapshot.
//
// When the context is traced, the whole serve — including a coalesced
// fill, where a follower links to the leader's span instead of
// claiming the upstream work — runs as an origin-tier span.
func (r *Repo) FetchPackageTracedCtx(ctx context.Context, name string) ([]byte, *FetchResult, error) {
	ctx, sp := trace.Start(ctx, "origin.package")
	defer sp.End()
	sp.SetTier("origin")
	sp.SetAttr("package", name)
	raw, res, err := r.fetchPackageTraced(ctx, name)
	sp.SetError(err)
	if res != nil {
		sp.SetAttr("served_from", res.From.String())
	}
	return raw, res, err
}

func (r *Repo) fetchPackageTraced(ctx context.Context, name string) ([]byte, *FetchResult, error) {
	snap := r.served.Load()
	if snap == nil {
		return nil, nil, ErrNotInitialized
	}
	r.totals.PackageReads.Add(1)
	raw, res, err := r.fetchFromSnapshot(ctx, snap, name)
	if err == nil {
		return raw, res, nil
	}
	if cur := r.served.Load(); cur != snap {
		return r.fetchFromSnapshot(ctx, cur, name)
	}
	if retryableServeError(err) {
		// The snapshot hasn't changed, so the failure may be an
		// artifact of reading through a state an in-flight refresh is
		// about to replace (e.g. an upstream-changed package whose old
		// bytes are gone and whose new bytes are not yet published).
		// Wait out any running refresh — the pre-snapshot behavior for
		// exactly this case — and retry once on what it published.
		// Loading the pointer under the lock guarantees we observe that
		// refresh's publish.
		//lint:allow servenolock deliberate lock barrier on the once-per-snapshot retry path only: it waits out an in-flight refresh, never fronts a read
		r.mu.Lock()
		cur := r.served.Load()
		r.mu.Unlock()
		if cur != snap {
			return r.fetchFromSnapshot(ctx, cur, name)
		}
	}
	return nil, nil, err
}

// noteServedWrite records a store key the serving path wrote, for the
// next refresh's stale-generation reconcile (see Repo.servedWrites).
func (r *Repo) noteServedWrite(key string) {
	r.servedWritesMu.Lock()
	r.servedWrites[key] = struct{}{}
	r.servedWritesMu.Unlock()
}

// retryableServeError reports whether a package-serve failure is worth
// retrying against a newer snapshot: definitive answers (unknown
// package, rejected package, repository not initialized) are not.
func retryableServeError(err error) bool {
	return !errors.Is(err, index.ErrNotFound) &&
		!errors.Is(err, ErrUnsupportedPkg) &&
		!errors.Is(err, ErrNotInitialized)
}

// fetchFromSnapshot answers one package request from the given
// snapshot.
func (r *Repo) fetchFromSnapshot(ctx context.Context, snap *snapshot, name string) ([]byte, *FetchResult, error) {
	start := time.Now()
	entry, err := snap.Index.Lookup(name)
	if err != nil {
		if reason, rejected := snap.rejected[name]; rejected {
			return nil, nil, fmt.Errorf("%w: %s: %s", ErrUnsupportedPkg, name, reason)
		}
		return nil, nil, err
	}
	if snap.mode == CacheBoth {
		if raw, err := r.svc.cfg.Store.Get(r.sanitizedKey(name, entry.Hash)); err == nil {
			if entry.Matches(raw) {
				return raw, &FetchResult{From: ServedSanitizedCache, Latency: time.Since(start), ETag: entry.ETag()}, nil
			}
			// Cache tampered or rolled back. Re-sanitize from original.
			if raw, res, err := r.fillCoalesced(ctx, snap, name, entry, start); err == nil {
				return raw, res, nil
			}
			return nil, nil, fmt.Errorf("%w: %s", ErrCacheTampered, name)
		}
	}
	return r.fillCoalesced(ctx, snap, name, entry, start)
}

// fillResult is the shared output of one coalesced cache fill.
type fillResult struct {
	raw []byte
	res *FetchResult
}

// fillCoalesced wraps resanitize in a singleflight keyed by the
// content hash: when a flash crowd of N concurrent cold requests
// lands on the same package (cache cold, evicted, or CacheNone), ONE
// request runs the expensive download + re-sanitization and the other
// N-1 wait and share its verified bytes. Without this, the origin
// re-ran the identical deterministic fill N times precisely when it
// was already the bottleneck. The key is the entry hash, so identical
// content coalesces even across snapshot generations and package
// names; the result is verified against that same hash inside
// resanitize, so followers share only index-proven bytes.
func (r *Repo) fillCoalesced(ctx context.Context, snap *snapshot, name string, entry index.Entry, start time.Time) ([]byte, *FetchResult, error) {
	v, leaderCtx, leader, err := r.fills.DoCtx(ctx, hex.EncodeToString(entry.Hash[:]), func(context.Context) (fillResult, error) {
		raw, res, err := r.resanitize(snap, name, entry, start)
		if err != nil {
			return fillResult{}, err
		}
		return fillResult{raw: raw, res: res}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	// The whole cohort shares the verified bytes, which are also the
	// sanitized-cache entry: like a cache hit, they are read-only.
	if leader {
		return v.raw, v.res, nil
	}
	r.totals.coalescedFills.Add(1)
	// The follower's span did not perform the fill: link it to the
	// leader's span rather than recording a fake upstream call.
	trace.SpanFromContext(ctx).LinkCoalesced(trace.SpanFromContext(leaderCtx))
	// Followers get their own result: same provenance and ETag, their
	// own wall-clock wait (which is ≤ the leader's full fill time).
	return v.raw, &FetchResult{From: v.res.From, Latency: time.Since(start), ETag: v.res.ETag}, nil
}

// resanitize rebuilds the sanitized package from the original (cached
// or downloaded) and checks it matches the snapshot's local index. The
// result must be byte-identical to the indexed version because both
// sanitization and encoding are deterministic. It runs entirely off the
// snapshot plus immutable Repo fields, so concurrent requests — and a
// concurrent refresh — never contend.
func (r *Repo) resanitize(snap *snapshot, name string, entry index.Entry, start time.Time) ([]byte, *FetchResult, error) {
	// A package whose last refresh failed still serves its previous
	// version; rebuild that version from its pinned upstream entry, not
	// from the newer upstream the repository has already verified.
	if snap.plan == nil {
		// Restored state serves from the sanitized cache only; the plan
		// (and with it on-demand re-sanitization) returns with the next
		// refresh.
		return nil, nil, fmt.Errorf("%w: %s: no sanitization plan until the next refresh", ErrCacheTampered, name)
	}
	upEntry, ok := snap.pinned[name]
	if !ok {
		var err error
		upEntry, err = snap.upstream.Lookup(name)
		if err != nil {
			return nil, nil, err
		}
	}
	from := ServedOriginalCache
	orig, dlBytes, err := r.obtainOriginal(snap.mode != CacheNone, name, upEntry)
	if err != nil {
		return nil, nil, err
	}
	var dl time.Duration
	if dlBytes > 0 {
		from = ServedMirror
		dl = r.chargeDownload(dlBytes, 1)
		if snap.mode != CacheNone {
			// obtainOriginal cached the download; record the write so
			// the next refresh can reconcile it (see Repo.servedWrites).
			r.noteServedWrite(r.origKey(name, upEntry.Hash))
		}
	}
	res, err := r.sanitizer(snap.plan, false).Sanitize(orig)
	if err != nil {
		return nil, nil, err
	}
	// Sanitization is fully deterministic (PKCS#1 v1.5 signatures and
	// the archive encoding are both deterministic), so the re-sanitized
	// bytes must hash to exactly the in-enclave index entry.
	if !entry.Matches(res.Raw) {
		return nil, nil, fmt.Errorf("%w: %s (re-sanitized bytes differ from index)", ErrCacheTampered, name)
	}
	// Repair the sanitized cache only when this snapshot is still the
	// published one: a stale-snapshot rebuild should not resurrect a
	// generation the refresh that replaced it has already evicted. The
	// check is best-effort (a publish can land between it and the Put),
	// so the write is also recorded for the next refresh's reconcile.
	if snap.mode == CacheBoth && r.served.Load() == snap {
		key := r.sanitizedKey(name, entry.Hash)
		if err := r.svc.cfg.Store.Put(key, res.Raw); err != nil {
			return nil, nil, err
		}
		r.noteServedWrite(key)
	}
	return res.Raw, &FetchResult{From: from, Latency: time.Since(start) + dl, ETag: entry.ETag()}, nil
}
