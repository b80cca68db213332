package tsr

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsr/internal/apk"
	"tsr/internal/flight"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/policy"
	"tsr/internal/quorum"
	"tsr/internal/sanitize"
	"tsr/internal/sched"
	"tsr/internal/script"
	"tsr/internal/store"
	"tsr/internal/trace"
)

// Cache behaviour errors.
var (
	ErrCacheTampered  = errors.New("tsr: cached package does not match the trusted index (tamper or rollback)")
	ErrRollback       = errors.New("tsr: sealed state is older than the TPM monotonic counter (rollback attack)")
	ErrUnsupportedPkg = errors.New("tsr: package rejected by sanitization policy")
	// ErrUpstream marks refresh failures caused by the mirror fleet —
	// quorum reads, upstream index verification, upstream replay. The
	// HTTP layer maps these to 502 Bad Gateway; local failures
	// (planning, sealing, signing) are not wrapped and map to 500.
	ErrUpstream = errors.New("tsr: upstream mirror failure")
)

// CacheMode selects which cache levels are active — the three scenarios
// of Figure 10 (None / Original / Sanitized).
type CacheMode int

const (
	// CacheBoth keeps original and sanitized packages (default).
	CacheBoth CacheMode = iota
	// CacheOriginalOnly caches upstream packages but re-sanitizes on
	// every download request.
	CacheOriginalOnly
	// CacheNone always re-downloads and re-sanitizes.
	CacheNone
)

// ServedFrom reports how a package request was satisfied.
type ServedFrom int

const (
	// ServedSanitizedCache: returned straight from the sanitized cache.
	ServedSanitizedCache ServedFrom = iota
	// ServedOriginalCache: original was cached; sanitized on demand.
	ServedOriginalCache
	// ServedMirror: downloaded from a mirror, then sanitized.
	ServedMirror
)

// String implements fmt.Stringer.
func (s ServedFrom) String() string {
	switch s {
	case ServedSanitizedCache:
		return "sanitized-cache"
	case ServedOriginalCache:
		return "original-cache"
	case ServedMirror:
		return "mirror"
	default:
		return fmt.Sprintf("ServedFrom(%d)", int(s))
	}
}

// RefreshStats describes one Refresh run — the Table 3 decomposition.
type RefreshStats struct {
	// QuorumLatency is the modeled time to read the metadata index
	// from the mirror quorum (Figure 13).
	QuorumLatency time.Duration
	// MirrorsContacted is how many mirrors the quorum consulted.
	MirrorsContacted int
	// DownloadTime is the modeled time to download changed packages.
	DownloadTime time.Duration
	// SanitizeTime is the measured CPU time sanitizing changed packages
	// (native, excluding the SGX model), summed over workers.
	SanitizeTime time.Duration
	// SGXOverhead is the modeled additional in-enclave time, charged
	// per worker batch: concurrent sanitizations share the EPC, so the
	// paging factor is driven by the batch's combined working set.
	SGXOverhead time.Duration
	// Downloaded, Sanitized, Rejected, Unchanged count packages.
	Downloaded, Sanitized, Rejected, Unchanged int
	// CacheHits counts packages whose sanitized result was reused from
	// the content-addressed sanitization cache — keyed by (original
	// digest, plan hash) — instead of being re-sanitized.
	CacheHits int
	// Workers is the pipeline concurrency this run used.
	Workers int
	// Errors lists per-package failures (mirror downloads, internal
	// sanitization errors). They no longer abort the cycle: a failed
	// package keeps its previous index entry while the plan is
	// unchanged and is retried on the next refresh.
	Errors []PackageError
	// Results holds the per-package sanitization results of this run
	// (consumed by the experiment harness; nil-able for big runs).
	Results []*sanitize.Result
}

// PackageError is one per-package refresh failure.
type PackageError struct {
	Name string `json:"name"`
	Err  string `json:"error"`
}

// Repo is one tenant repository inside a TSR service.
type Repo struct {
	ID string

	svc      *Service
	policy   *policy.Policy
	signKey  *keys.Pair
	trust    *keys.Ring // policy signer keys: verifies indexes and packages
	reader   *quorum.Reader
	fetchers []PackageFetcher

	// mu guards the refresh-side (trusted pipeline) state below. The
	// serving path never takes it: reads go through the atomically
	// published snapshot instead, so a cold refresh holding mu for its
	// whole cycle does not block a single client request.
	mu             sync.Mutex
	mode           CacheMode
	workers        int           // refresh pipeline concurrency (1 = the paper's sequential prototype)
	upstream       *index.Index  // latest verified upstream index
	upstreamDigest [32]byte      // digest of the signed upstream index last planned against
	local          *index.Index  // index of sanitized packages
	localSig       *index.Signed // signed local index served to clients
	plan           *sanitize.Plan
	planHash       [32]byte                // content hash of the plan; half of every cache key
	rejected       map[string]string       // package -> rejection reason
	rejectedKey    map[string]string       // package -> cache key it was rejected under (negative cache)
	scripts        map[string]scriptsEntry // package -> last decoded hook scripts (plan scan cache)
	pinned         map[string]index.Entry  // packages serving a previous version after a failed refresh: name -> the upstream entry that version came from
	planDebt       map[string]bool         // packages whose current-version scripts did not inform the plan (fetch failed); re-fetched and re-planned next refresh
	registered     map[string]index.Entry  // operator-registered original packages (batched ingest): name -> entry describing the ORIGINAL bytes; refresh sanitizes them alongside upstream targets unless an upstream package of the same name shadows the registration
	keepStats      bool
	seq            uint64 // local index sequence

	// served is the published read state; see snapshot.go. Swapped in
	// one atomic store at the end of a successful Refresh/RestoreState.
	served atomic.Pointer[snapshot]
	// fills coalesces concurrent cache-fill work on the serving path
	// (see fillCoalesced in snapshot.go): N concurrent cold requests
	// for the same content run ONE download+re-sanitization.
	fills flight.Group[fillResult]
	// totals are the cumulative serving/pipeline counters. All-atomic,
	// so CacheStats never touches mu either.
	totals counters

	// servedWrites records every store key the lock-free serving path
	// wrote (cache repairs, re-downloads). A reader racing a publish can
	// re-create a blob the refresh's eviction pass just deleted; each
	// refresh reconciles these records against the keep-set it publishes
	// and deletes the resurrected stale generations, so the race costs
	// at most one refresh interval of extra storage, never a leak.
	servedWritesMu sync.Mutex
	servedWrites   map[string]struct{}

	// manifests memoizes chunk manifests by content hash for the
	// differential-sync endpoint; see stream.go.
	manifests ManifestMemo
}

// newRepo builds the tenant repository and its quorum reader.
func newRepo(id string, pol *policy.Policy, signKey *keys.Pair, svc *Service) (*Repo, error) {
	trust, err := pol.SignerRing()
	if err != nil {
		return nil, err
	}
	r := &Repo{
		ID:           id,
		svc:          svc,
		policy:       pol,
		signKey:      signKey,
		trust:        trust,
		workers:      max(svc.cfg.Workers, 1),
		rejected:     make(map[string]string),
		rejectedKey:  make(map[string]string),
		scripts:      make(map[string]scriptsEntry),
		pinned:       make(map[string]index.Entry),
		planDebt:     make(map[string]bool),
		registered:   make(map[string]index.Entry),
		servedWrites: make(map[string]struct{}),
	}
	members := make([]quorum.Member, 0, len(pol.Mirrors))
	for _, m := range pol.Mirrors {
		if svc.cfg.Resolve == nil {
			return nil, fmt.Errorf("%w: no resolver configured", ErrNoMirror)
		}
		src, fetcher, err := svc.cfg.Resolve(m)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrNoMirror, m.Hostname, err)
		}
		cont, err := m.Continent()
		if err != nil {
			return nil, err
		}
		members = append(members, quorum.Member{Host: m.Hostname, Continent: cont, Source: src})
		r.fetchers = append(r.fetchers, fetcher)
	}
	r.reader = &quorum.Reader{
		Local:     svc.cfg.Local,
		Link:      svc.cfg.Link,
		Clock:     svc.cfg.Clock,
		TrustRing: trust,
		Members:   members,
	}
	return r, nil
}

// PublicKey returns the repository's public signing key.
func (r *Repo) PublicKey() *keys.Public { return r.signKey.Public() }

// Policy returns the deployed policy.
func (r *Repo) Policy() *policy.Policy { return r.policy }

// SetCacheMode selects the Figure 10 cache scenario. The published
// snapshot is republished with the new mode so the serving path picks
// it up immediately.
func (r *Repo) SetCacheMode(m CacheMode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mode = m
	if snap := r.served.Load(); snap != nil {
		cp := *snap // maps/indexes are immutable; sharing them is safe
		//lint:allow snapfreeze cp is a private copy, mutated before the Store publishes it; no reader can hold it yet
		cp.mode = m
		r.served.Store(&cp)
	}
}

// SetWorkers bounds this repository's refresh pipeline concurrency:
// downloads and sanitizations run in batches of n goroutines. The
// paper's prototype is sequential and notes that "the download time
// can be greatly reduced by enabling parallel downloading. This
// performance improvement is left as part of future work" (Table 3) —
// the worker pool implements that future work and extends it to
// sanitization. Parallel transfers share the path bandwidth in the
// network model, so the modeled download saving comes from overlapping
// round trips, not free bandwidth; the sanitization saving is real CPU
// parallelism.
func (r *Repo) SetWorkers(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workers = max(n, 1)
}

// ForceReplan drops the in-memory sanitization plan and upstream
// fingerprint so the next Refresh rebuilds the plan from scratch. When
// the rebuilt plan comes out unchanged, every package returns as a
// content-cache hit, so forcing a replan is cheap insurance rather than
// a full re-sanitization.
func (r *Repo) ForceReplan() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.plan = nil
	r.planHash = [32]byte{}
	r.upstreamDigest = [32]byte{}
}

// KeepStats makes Refresh retain per-package sanitization results.
func (r *Repo) KeepStats(keep bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keepStats = keep
}

// RejectedPackages returns the packages rejected by sanitization and
// their reasons, as of the published snapshot — lock-free, so the
// endpoint answers instantly while a refresh runs. Before the first
// publish it falls back to the refresh-side state.
func (r *Repo) RejectedPackages() map[string]string {
	if snap := r.served.Load(); snap != nil {
		out := make(map[string]string, len(snap.rejected))
		for k, v := range snap.rejected {
			out[k] = v
		}
		return out
	}
	if !r.mu.TryLock() {
		// Nothing published yet and the first refresh is in flight:
		// report the empty pre-publish state instead of blocking a read
		// on the pipeline.
		return map[string]string{}
	}
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.rejected))
	for k, v := range r.rejected {
		out[k] = v
	}
	return out
}

// Findings returns the security findings of the published plan
// (lock-free; falls back to the refresh-side plan before the first
// publish).
func (r *Repo) Findings() []sanitize.Finding {
	if snap := r.served.Load(); snap != nil {
		if snap.plan == nil {
			return nil
		}
		return append([]sanitize.Finding(nil), snap.plan.Findings...)
	}
	if !r.mu.TryLock() {
		return nil // first refresh in flight; nothing published yet
	}
	defer r.mu.Unlock()
	if r.plan == nil {
		return nil
	}
	return append([]sanitize.Finding(nil), r.plan.Findings...)
}

// Cache key builders. Package byte caches are content-addressed per
// generation: the key embeds the (truncated) content hash of the exact
// bytes it should hold, so a refresh writing a package's next version
// never overwrites the bytes the previously published snapshot still
// references — stale-snapshot readers keep hitting their own
// generation until it is evicted after the next publish.
func (r *Repo) origKey(name string, hash [32]byte) string {
	return r.ID + "/orig/" + name + "@" + hex.EncodeToString(hash[:16])
}
func (r *Repo) sanitizedKey(name string, hash [32]byte) string {
	return r.ID + "/san/" + name + "@" + hex.EncodeToString(hash[:16])
}

// stages sequences a refresh cycle's child spans without nesting the
// cycle's body in closures: next ends the stage span in flight and
// opens the named one, and close ends the last stage, attributing the
// cycle's error to it. Every stage span is a direct child of the
// caller's context span, so the refresh renders as one flat tree.
type stages struct {
	ctx context.Context
	sp  *trace.Span
}

func newStages(ctx context.Context) *stages { return &stages{ctx: ctx} }

func (t *stages) next(name string) {
	t.sp.End()
	_, t.sp = trace.Start(t.ctx, name) //lint:allow spanend every stage span is ended by the following next or by the deferred close
}

func (t *stages) close(err error) {
	t.sp.SetError(err)
	t.sp.End()
}

// Refresh performs the §5.4 cycle: quorum-read the upstream metadata
// index, download packages that changed since the previous refresh,
// (re)build the sanitization plan, sanitize, cache, and publish a new
// signed local index.
//
// The cycle runs as a bounded-concurrency pipeline: originals are
// fetched and packages sanitized in batches of SetWorkers goroutines,
// with modeled download and EPC costs charged per batch. The signed
// local index is rebuilt incrementally from the content-addressed
// sanitization cache plus fresh results, so a refresh over an unchanged
// upstream — or after a forced replan or restart that left the plan
// intact — performs zero sanitizations. Per-package failures are
// collected in RefreshStats.Errors instead of aborting the cycle.
//
// Refresh holds the repository lock for the whole cycle, but the
// serving path reads the previously published snapshot, so clients are
// never blocked: the new state becomes visible all at once via
// publishLocked, and any early error return keeps the old snapshot
// serving.
func (r *Repo) Refresh() (*RefreshStats, error) {
	return r.RefreshCtx(context.Background())
}

// RefreshCtx is Refresh under a caller-supplied context: when the
// context carries a tracer the cycle is recorded as one
// "origin.refresh" span with a child span per stage (quorum, fetch,
// plan, sanitize, sign, publish, seal), so a refresh shows up as a
// single inspectable tree under /debug/traces.
//
// The cycle is admitted through the service's global scheduler at
// Interactive priority: an operator-triggered refresh jumps queued
// background work. With a zero scheduler config (the single-tenant
// default) admission is a pass-through.
func (r *Repo) RefreshCtx(ctx context.Context) (*RefreshStats, error) {
	return r.refreshScheduled(ctx, sched.Interactive)
}

// RefreshBackgroundCtx is RefreshCtx at Background priority — the band
// the auto-refresh loop uses, so periodic fleet-wide refreshes queue
// behind (and are preempted by) operator-triggered work.
func (r *Repo) RefreshBackgroundCtx(ctx context.Context) (*RefreshStats, error) {
	return r.refreshScheduled(ctx, sched.Background)
}

// refreshScheduled wraps the refresh cycle in its trace span and runs
// it as one scheduler job: admission (weighted-fair, priority-banded)
// happens first, then the cycle leases worker slots from the global
// pool batch by batch via the Grant.
func (r *Repo) refreshScheduled(ctx context.Context, pri sched.Priority) (stats *RefreshStats, err error) {
	ctx, sp := trace.Start(ctx, "origin.refresh")
	defer func() {
		if stats != nil {
			sp.SetAttrInt("sanitized", int64(stats.Sanitized))
			sp.SetAttrInt("cache_hits", int64(stats.CacheHits))
			sp.SetAttrInt("rejected", int64(stats.Rejected))
			sp.SetAttrInt("failed", int64(len(stats.Errors)))
		}
		sp.SetError(err)
		sp.End()
	}()
	sp.SetTier("origin")
	err = r.svc.sched.Run(ctx, r.ID, pri, func(ctx context.Context, g *sched.Grant) error {
		var ferr error
		stats, ferr = r.refreshGranted(ctx, g)
		return ferr
	})
	return stats, err
}

// refreshGranted is the refresh cycle body, already admitted by the
// scheduler and holding g for worker-slot leases.
func (r *Repo) refreshGranted(ctx context.Context, g *sched.Grant) (stats *RefreshStats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	workers := r.workers
	mode := r.mode
	stats = &RefreshStats{Workers: workers}
	// Stage spans: each st.next ends the previous stage's span and
	// opens the named one; the deferred close ends whichever stage is
	// in flight when the cycle returns — including early error
	// unwinds — and attributes the cycle's error to it.
	st := newStages(ctx)
	defer func() { st.close(err) }()

	st.next("refresh.quorum")
	qres, err := r.reader.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUpstream, err)
	}
	stats.QuorumLatency = qres.Elapsed
	stats.MirrorsContacted = qres.Contacted
	newUpstream, err := qres.Index.Verify(r.trust)
	if err != nil {
		return nil, fmt.Errorf("%w: verifying upstream index: %w", ErrUpstream, err)
	}
	if r.upstream != nil && newUpstream.Sequence < r.upstream.Sequence {
		// A quorum of mirrors agreeing on an older index than one we
		// already verified: treat as replay and refuse.
		return nil, fmt.Errorf("%w: %w: upstream sequence %d < %d", ErrUpstream, ErrRollback, newUpstream.Sequence, r.upstream.Sequence)
	}
	upstreamDigest := qres.Index.Digest()

	// Determine work: on the first refresh everything is "added".
	var added, changed []string
	if r.upstream == nil {
		added = newUpstream.Names()
	} else {
		added, changed, _ = index.Diff(r.upstream, newUpstream)
	}
	work := make([]string, 0, len(added)+len(changed))
	inWork := make(map[string]bool, len(added)+len(changed))
	for _, name := range append(append([]string(nil), added...), changed...) {
		// The §4.5 private/closed policy variant: packages outside the
		// whitelist (or on the blacklist) are excluded up front.
		if !r.policy.Allows(name) {
			r.rejected[name] = "excluded by policy whitelist/blacklist"
			stats.Rejected++
			continue
		}
		work = append(work, name)
		inWork[name] = true
	}
	// Re-fetch packages carrying plan debt: their current scripts never
	// informed the plan (the fetch failed), so they must be retried
	// even though the upstream diff does not list them.
	for name := range r.planDebt {
		if inWork[name] || !r.policy.Allows(name) {
			continue
		}
		if _, err := newUpstream.Lookup(name); err != nil {
			continue
		}
		work = append(work, name)
		inWork[name] = true
	}
	stats.Unchanged = len(newUpstream.Entries) - len(work)

	st.next("refresh.fetch")
	// Stage 1: fetch originals of added/changed packages in worker
	// batches and decode their scripts for the plan scan. Each batch of
	// concurrent transfers costs one round trip plus its aggregate
	// payload at the path bandwidth. Failures are per-package, not
	// fatal.
	failed := make(map[string]string)
	raws := make(map[string][]byte, len(work))
	type fetchOut struct {
		raw     []byte
		dlBytes int64
		scripts map[string]string
		decoded bool
		err     error
	}
	fouts := make([]fetchOut, len(work))
	for base := 0; base < len(work); {
		// Lease this batch's goroutines from the global pool: the batch
		// shrinks below the per-repo workers cap when other tenants hold
		// slots, so the fleet-wide in-flight total stays bounded.
		lease := g.Acquire(min(workers, len(work)-base))
		batch := work[base : base+lease]
		var wg sync.WaitGroup
		for j := range batch {
			wg.Add(1)
			go func(out *fetchOut, name string) {
				defer wg.Done()
				entry, err := newUpstream.Lookup(name)
				if err != nil {
					out.err = err
					return
				}
				out.raw, out.dlBytes, out.err = r.obtainOriginal(mode, name, entry)
				if out.err != nil {
					return
				}
				if p, err := apk.Decode(out.raw); err == nil {
					out.scripts, out.decoded = p.Scripts, true
				}
			}(&fouts[base+j], batch[j])
		}
		wg.Wait()
		batchDl := make([]int64, 0, len(batch))
		for j := range batch {
			batchDl = append(batchDl, fouts[base+j].dlBytes)
		}
		r.chargeBatchDownloads(stats, batchDl)
		g.Release(lease)
		base += lease
	}
	// Plan debt: packages whose scripts at the current upstream version
	// are still unknown after stage 1. They keep forcing plan rebuilds
	// and re-fetches until they heal — reusing a plan that never saw a
	// package's scripts would strip its account commands without
	// provisioning the accounts.
	newPlanDebt := make(map[string]bool)
	for i, name := range work {
		if fouts[i].err != nil {
			failed[name] = fouts[i].err.Error()
			newPlanDebt[name] = true
			continue
		}
		raws[name] = fouts[i].raw
		if fouts[i].decoded {
			if entry, err := newUpstream.Lookup(name); err == nil {
				r.scripts[name] = scriptsEntry{digest: entry.Hash, scripts: fouts[i].scripts}
			}
		} else {
			newPlanDebt[name] = true
		}
	}

	st.next("refresh.plan")
	// (Re)build the sanitization plan from ALL package scripts (the
	// repository-wide scan of §4.2). When the upstream index is
	// byte-identical to the last one planned against — and no package
	// carries plan debt — the existing plan is reused outright;
	// otherwise the scan runs over the script cache, decoding only
	// packages it has not seen.
	plan := r.plan
	if plan == nil || upstreamDigest != r.upstreamDigest || len(r.planDebt) > 0 || len(newPlanDebt) > 0 {
		plan, err = sanitize.BuildPlan(&scriptCacheSource{repo: r, idx: newUpstream, failed: failed}, r.policy.InitConfigFiles, r.signKey)
		if err != nil {
			return nil, err
		}
	}
	planHash := plan.Hash()
	replanned := planHash != r.planHash

	san := &sanitize.Sanitizer{
		Plan:      plan,
		TrustRing: r.trust,
		SignKey:   r.signKey,
		EPC:       r.svc.cfg.EPC,
	}

	st.next("refresh.sanitize")
	// Stage 2 targets: every policy-allowed package in the upstream
	// index. The content-addressed cache — keyed by (original digest,
	// plan hash) — decides which actually get sanitized, so unchanged
	// packages under an unchanged plan cost one sealed-metadata read
	// regardless of why they were targeted. Packages that failed stage
	// 1 are skipped here; previously rejected packages stay rejected
	// without a new attempt while their (digest, plan) pair is
	// unchanged. Under CacheNone the sanitization cache is off, so
	// unchanged packages carry their previous index entries forward
	// instead of being re-sanitized (CacheNone is a Figure 10 package
	// *serving* scenario; the refresh stays incremental).
	var carried []index.Entry
	targets := make([]index.Entry, 0, len(newUpstream.Entries))
	for _, e := range newUpstream.Entries {
		if !r.policy.Allows(e.Name) {
			continue
		}
		if _, ok := failed[e.Name]; ok {
			continue
		}
		if r.rejectedKey[e.Name] == r.sanCacheKey(e.Hash, planHash) {
			continue
		}
		if mode == CacheNone && !replanned && !inWork[e.Name] && r.local != nil {
			if old, err := r.local.Lookup(e.Name); err == nil {
				carried = append(carried, old)
				continue
			}
		}
		targets = append(targets, e)
	}
	// Operator-registered packages (batched ingest) join the targets —
	// their originals sit in the cache under the same content-addressed
	// keys, so the sanitization cache treats them exactly like upstream
	// packages. An upstream package of the same name shadows the
	// registration (the mirror fleet outranks the operator).
	if len(r.registered) > 0 {
		regNames := make([]string, 0, len(r.registered))
		for name := range r.registered {
			regNames = append(regNames, name)
		}
		sort.Strings(regNames)
		for _, name := range regNames {
			e := r.registered[name]
			if _, err := newUpstream.Lookup(name); err == nil {
				continue
			}
			if !r.policy.Allows(name) {
				continue
			}
			if r.rejectedKey[name] == r.sanCacheKey(e.Hash, planHash) {
				continue
			}
			targets = append(targets, e)
		}
	}

	// Workers keep only the result metadata needed for accounting; the
	// full Result (sanitized bytes plus the decoded package) is
	// retained only under KeepStats, and each fetched original is
	// released once its stage-2 batch completes. Peak memory is the
	// stage-1 originals still awaiting sanitization plus one batch of
	// in-flight packages — not the whole repository's results.
	type sanOut struct {
		newEntry   index.Entry
		ok         bool
		fresh      bool          // a cache miss that was sanitized
		native     time.Duration // measured sanitization CPU time
		workingSet int64         // modeled enclave working set
		res        *sanitize.Result
		cacheHit   bool
		dlBytes    int64
		reject     string
		err        error
	}
	keepStats := r.keepStats
	souts := make([]sanOut, len(targets))
	for base := 0; base < len(targets); {
		lease := g.Acquire(min(workers, len(targets)-base))
		batch := targets[base : base+lease]
		var wg sync.WaitGroup
		for j := range batch {
			wg.Add(1)
			go func(out *sanOut, e index.Entry) {
				defer wg.Done()
				key := r.sanCacheKey(e.Hash, planHash)
				if mode != CacheNone {
					if ce, err := r.loadCacheEntry(key); err == nil {
						out.newEntry = index.Entry{Name: e.Name, Version: e.Version, Size: ce.Size, Hash: ce.Hash, Depends: e.Depends}
						out.ok, out.cacheHit = true, true
						return
					}
				}
				raw := raws[e.Name]
				if raw == nil {
					var err error
					raw, out.dlBytes, err = r.obtainOriginal(mode, e.Name, e)
					if err != nil {
						out.err = err
						return
					}
				}
				res, err := san.Sanitize(raw)
				if err != nil {
					// Policy enforcement (§4.5): packages with
					// unsupported scripts or not "created by trusted
					// entities" are excluded from the repository, not
					// fatal to the refresh.
					if errors.Is(err, sanitize.ErrUnsupported) || errors.Is(err, apk.ErrUntrusted) {
						out.reject = err.Error()
						return
					}
					out.err = fmt.Errorf("tsr: sanitizing %s: %w", e.Name, err)
					return
				}
				sum := sha256.Sum256(res.Raw)
				if err := r.svc.cfg.Store.Put(r.sanitizedKey(e.Name, sum), res.Raw); err != nil {
					out.err = err
					return
				}
				if mode != CacheNone {
					if err := r.storeCacheEntry(cacheEntry{Key: key, Size: int64(len(res.Raw)), Hash: sum}); err != nil {
						out.err = err
						return
					}
				}
				out.fresh = true
				out.native = res.Phases.Total()
				out.workingSet = res.WorkingSet
				if keepStats {
					out.res = res
				}
				out.newEntry = index.Entry{Name: e.Name, Version: e.Version, Size: int64(len(res.Raw)), Hash: sum, Depends: e.Depends}
				out.ok = true
			}(&souts[base+j], batch[j])
		}
		wg.Wait()
		// Charge the batch's modeled costs: downloads as one round of
		// concurrent transfers, and SGX paging from the batch's
		// combined working set (worker threads share the EPC).
		batchDl := make([]int64, 0, len(batch))
		var workingSets []int64
		for j := range batch {
			batchDl = append(batchDl, souts[base+j].dlBytes)
			if souts[base+j].fresh {
				workingSets = append(workingSets, souts[base+j].workingSet)
			}
		}
		r.chargeBatchDownloads(stats, batchDl)
		if f := r.svc.cfg.EPC.SharedFactor(workingSets); f > 1 && len(workingSets) > 0 {
			for j := range batch {
				if souts[base+j].fresh {
					stats.SGXOverhead += time.Duration(float64(souts[base+j].native) * (f - 1))
				}
			}
		}
		// The originals of this batch are no longer needed in memory
		// (serving paths re-read them from the original cache).
		for j := range batch {
			delete(raws, batch[j].Name)
		}
		g.Release(lease)
		base += lease
	}

	st.next("refresh.sign")
	// Rebuild the local index from cache hits plus fresh results.
	newLocal := &index.Index{Origin: "tsr-" + r.ID, Sequence: r.seq + 1}
	for i := range souts {
		out := &souts[i]
		name := targets[i].Name
		switch {
		case out.err != nil:
			failed[name] = out.err.Error()
		case out.reject != "":
			r.rejected[name] = out.reject
			r.rejectedKey[name] = r.sanCacheKey(targets[i].Hash, planHash)
			stats.Rejected++
		case out.ok:
			delete(r.rejected, name)
			delete(r.rejectedKey, name)
			newLocal.Add(out.newEntry)
			if out.cacheHit {
				stats.CacheHits++
			} else {
				stats.Sanitized++
				stats.SanitizeTime += out.native
				if out.res != nil {
					stats.Results = append(stats.Results, out.res)
				}
			}
		}
	}
	// CacheNone carries unchanged packages' previous entries forward.
	for _, e := range carried {
		newLocal.Add(e)
	}
	// Per-package failures are surfaced, not fatal. While the plan is
	// unchanged the previous (still consistent) entry keeps serving;
	// after a replan a stale entry would carry the old preamble, so the
	// package drops out until a later refresh succeeds. The upstream
	// entry the served version came from is pinned so that on-demand
	// re-sanitization keeps verifying against the right original until
	// the update succeeds — without the pin, a fetch would rebuild the
	// NEW version and raise a spurious tamper alarm when its hash does
	// not match the carried index entry.
	newPinned := make(map[string]index.Entry)
	for name, msg := range failed {
		stats.Errors = append(stats.Errors, PackageError{Name: name, Err: msg})
		if !replanned && r.local != nil {
			if old, err := r.local.Lookup(name); err == nil {
				newLocal.Add(old)
				if pe, ok := r.pinned[name]; ok {
					newPinned[name] = pe
				} else if r.upstream != nil {
					if pe, err := r.upstream.Lookup(name); err == nil {
						newPinned[name] = pe
					}
				}
			}
		}
	}
	sort.Slice(stats.Errors, func(i, j int) bool { return stats.Errors[i].Name < stats.Errors[j].Name })

	signedLocal, err := index.Sign(newLocal, r.signKey)
	if err != nil {
		return nil, err
	}

	st.next("refresh.publish")
	// Evict state for packages that left the upstream: script cache and
	// rejection bookkeeping would otherwise grow forever under churn.
	// Registered packages live outside the upstream index, so their
	// state survives until Unregister.
	for name := range r.scripts {
		if _, ok := r.registered[name]; ok {
			continue
		}
		if _, err := newUpstream.Lookup(name); err != nil {
			delete(r.scripts, name)
		}
	}
	for name := range r.rejected {
		if _, ok := r.registered[name]; ok {
			continue
		}
		if _, err := newUpstream.Lookup(name); err != nil {
			delete(r.rejected, name)
			delete(r.rejectedKey, name)
		}
	}

	oldLocal, oldUpstream, oldPinned := r.local, r.upstream, r.pinned
	oldPlanHash := r.planHash
	r.upstream = newUpstream
	r.upstreamDigest = upstreamDigest
	r.plan = plan
	r.planHash = planHash
	r.local = newLocal
	r.localSig = signedLocal
	r.seq = newLocal.Sequence
	r.pinned = newPinned
	r.planDebt = newPlanDebt
	// Build-then-publish: the new read state becomes visible to clients
	// in one atomic store, only now that the whole cycle succeeded.
	r.publishLocked()

	// Evict cache generations nothing references anymore: byte blobs
	// addressed by (name, hash) pairs that appear in the outgoing
	// indexes but in neither the incoming ones nor the pinned set that
	// on-demand rebuilds still need. Old-snapshot readers in flight at
	// publish time can race an eviction; FetchPackageTraced retries
	// against the fresh snapshot when that happens.
	if oldLocal != nil {
		for _, e := range oldLocal.Entries {
			if ne, err := newLocal.Lookup(e.Name); err == nil && ne.Hash == e.Hash {
				continue
			}
			_ = r.svc.cfg.Store.Delete(r.sanitizedKey(e.Name, e.Hash))
		}
	}
	evictOrig := func(name string, hash [32]byte) {
		if pe, ok := newPinned[name]; ok && pe.Hash == hash {
			return
		}
		if re, ok := r.registered[name]; ok && re.Hash == hash {
			return
		}
		if ne, err := newUpstream.Lookup(name); err == nil && ne.Hash == hash {
			return
		}
		_ = r.svc.cfg.Store.Delete(r.origKey(name, hash))
	}
	if oldUpstream != nil {
		for _, e := range oldUpstream.Entries {
			evictOrig(e.Name, e.Hash)
		}
	}
	for name, pe := range oldPinned {
		evictOrig(name, pe.Hash)
	}
	// The sealed sanitization-cache metadata follows its generation:
	// (digest, plan) pairs the new state no longer produces are deleted
	// together with their byte blobs. Otherwise a recurring pair — e.g.
	// an upstream version rollback A→B→A — would cache-hit metadata
	// whose sanitized bytes were evicted with the old generation and
	// publish an index entry with no bytes behind it. (After a
	// ForceReplan oldPlanHash is zero and these deletes address keys
	// that never existed — harmless no-ops.)
	if oldPlanHash != planHash {
		// Registered packages' cache metadata under the outgoing plan is
		// equally stale (their bytes were re-sanitized above).
		for _, e := range r.registered {
			_ = r.svc.cfg.Store.Delete(r.sanCacheKey(e.Hash, oldPlanHash))
		}
	}
	if oldUpstream != nil && oldPlanHash != planHash {
		for _, e := range oldUpstream.Entries {
			_ = r.svc.cfg.Store.Delete(r.sanCacheKey(e.Hash, oldPlanHash))
		}
	} else if oldUpstream != nil {
		for _, e := range oldUpstream.Entries {
			if ne, err := newUpstream.Lookup(e.Name); err == nil && ne.Hash == e.Hash {
				continue
			}
			_ = r.svc.cfg.Store.Delete(r.sanCacheKey(e.Hash, oldPlanHash))
		}
	}
	// Reconcile serving-path writes: a reader racing an earlier publish
	// may have re-created a blob its eviction pass had already deleted
	// (repairing a tampered cache, or re-downloading an original). Any
	// recorded key the state just published does not reference is such
	// a resurrected stale generation — delete it now. Steady state has
	// no recorded writes, so the keep-set is only built when needed.
	r.servedWritesMu.Lock()
	recorded := r.servedWrites
	if len(recorded) > 0 {
		r.servedWrites = make(map[string]struct{})
	}
	r.servedWritesMu.Unlock()
	if len(recorded) > 0 {
		keep := make(map[string]struct{}, len(newLocal.Entries)+len(newUpstream.Entries)+len(newPinned))
		for _, e := range newLocal.Entries {
			keep[r.sanitizedKey(e.Name, e.Hash)] = struct{}{}
		}
		for _, e := range newUpstream.Entries {
			keep[r.origKey(e.Name, e.Hash)] = struct{}{}
		}
		for name, pe := range newPinned {
			keep[r.origKey(name, pe.Hash)] = struct{}{}
		}
		for name, re := range r.registered {
			keep[r.origKey(name, re.Hash)] = struct{}{}
		}
		for key := range recorded {
			if _, ok := keep[key]; !ok {
				_ = r.svc.cfg.Store.Delete(key)
			}
		}
	}

	r.totals.refreshes.Add(1)
	r.totals.cacheHits.Add(int64(stats.CacheHits))
	r.totals.sanitized.Add(int64(stats.Sanitized))
	r.totals.rejected.Add(int64(stats.Rejected))
	r.totals.downloaded.Add(int64(stats.Downloaded))
	r.totals.failed.Add(int64(len(stats.Errors)))
	// Under AutoPersist every successful refresh checkpoints the sealed
	// state, so a crash at any later instant restarts warm into this
	// generation. The refresh itself has already published — a
	// checkpoint failure is surfaced as an operational error (the
	// in-memory service keeps serving; durability is degraded until a
	// checkpoint succeeds).
	if r.svc.cfg.AutoPersist {
		st.next("refresh.seal")
		if err := r.checkpointLocked(); err != nil {
			return stats, fmt.Errorf("tsr: refresh published but checkpoint failed: %w", err)
		}
	}
	return stats, nil
}

// obtainOriginal returns the original package bytes, from the
// original cache when allowed, else from a mirror (verifying size and
// hash against the trusted upstream index entry). The returned count is
// the number of bytes downloaded over the network (zero on cache hit);
// the caller charges the modeled transfer time via chargeDownload.
// It takes the cache mode explicitly so refresh workers can call it
// without holding the repository lock.
func (r *Repo) obtainOriginal(mode CacheMode, name string, entry index.Entry) ([]byte, int64, error) {
	if mode != CacheNone {
		if raw, err := r.svc.cfg.Store.Get(r.origKey(name, entry.Hash)); err == nil {
			if int64(len(raw)) == entry.Size && sha256.Sum256(raw) == entry.Hash {
				return raw, 0, nil
			}
			// Tampered original cache: fall through to re-download.
		}
	}
	var lastErr error
	for _, f := range r.fetchers {
		raw, err := f.FetchPackage(name)
		if err != nil {
			lastErr = err
			continue
		}
		if int64(len(raw)) != entry.Size || sha256.Sum256(raw) != entry.Hash {
			lastErr = fmt.Errorf("tsr: mirror served wrong bytes for %s", name)
			continue
		}
		if mode != CacheNone {
			if err := r.svc.cfg.Store.Put(r.origKey(name, entry.Hash), raw); err != nil {
				return nil, 0, err
			}
		}
		return raw, entry.Size, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("tsr: no mirrors configured")
	}
	return nil, 0, fmt.Errorf("tsr: downloading %s: %w", name, lastErr)
}

// chargeBatchDownloads accounts one worker batch's downloads: per-item
// byte counts are summed (zero means a cache hit) and charged as one
// round of concurrent transfers.
func (r *Repo) chargeBatchDownloads(stats *RefreshStats, dlBytes []int64) {
	var total int64
	n := 0
	for _, b := range dlBytes {
		if b > 0 {
			total += b
			n++
		}
	}
	stats.Downloaded += n
	stats.DownloadTime += r.chargeDownload(total, n)
}

// chargeDownload charges the modeled transfer time for a batch of
// packageCount transfers totaling bytes, issued concurrently: one round
// trip for the batch plus the payload at the path bandwidth (the link
// is work-conserving, so concurrent transfers do not waste capacity —
// batching saves the per-package round trips).
func (r *Repo) chargeDownload(bytes int64, packageCount int) time.Duration {
	if r.svc.cfg.Link == nil || packageCount == 0 {
		return 0
	}
	remote := netsim.Europe
	if len(r.reader.Members) > 0 {
		remote = r.reader.Members[0].Continent
	}
	d := r.svc.cfg.Link.RequestResponseBatch(r.svc.cfg.Local, remote, bytes, packageCount)
	if r.svc.cfg.Clock != nil {
		r.svc.cfg.Clock.Sleep(d)
	}
	return d
}

// scriptsEntry caches one package's hook scripts together with the
// original digest they were decoded from.
type scriptsEntry struct {
	digest  [32]byte
	scripts map[string]string
}

// scriptCacheSource feeds BuildPlan the scripts of every package in the
// upstream index through the repository's script cache: freshly fetched
// packages were decoded in stage 1, unchanged packages hit the cache
// from earlier refreshes, and anything else (e.g. the first replan
// after a restart) is decoded from the original cache once and
// remembered. For a package whose download failed this cycle, the
// previous version's cached scripts stand in — a transient mirror
// failure must not shift the account plan (and with it every package's
// canonical uid/gid assignment and cache key). It runs under the
// repository lock.
type scriptCacheSource struct {
	repo   *Repo
	idx    *index.Index
	failed map[string]string
	pos    int
}

// NextScripts implements sanitize.PackageSource.
func (s *scriptCacheSource) NextScripts() (string, map[string]string, bool) {
	for s.pos < len(s.idx.Entries) {
		entry := s.idx.Entries[s.pos]
		s.pos++
		ce, cached := s.repo.scripts[entry.Name]
		if cached && ce.digest == entry.Hash {
			return entry.Name, ce.scripts, true
		}
		if scripts, ok := s.fromStore(entry); ok {
			return entry.Name, scripts, true
		}
		if _, fetchFailed := s.failed[entry.Name]; fetchFailed && cached {
			// Stale but plan-stabilizing: the last version this package
			// contributed to the plan. Retried next refresh.
			return entry.Name, ce.scripts, true
		}
		continue // no script info available; skip
	}
	return "", nil, false
}

// fromStore decodes a package's scripts from the cached original,
// verifying the bytes against the trusted index entry first.
func (s *scriptCacheSource) fromStore(entry index.Entry) (map[string]string, bool) {
	cached, err := s.repo.svc.cfg.Store.Get(s.repo.origKey(entry.Name, entry.Hash))
	if err != nil {
		return nil, false
	}
	if int64(len(cached)) != entry.Size || sha256.Sum256(cached) != entry.Hash {
		return nil, false // stale or tampered original cache; do not trust
	}
	p, err := apk.Decode(cached)
	if err != nil {
		return nil, false
	}
	s.repo.scripts[entry.Name] = scriptsEntry{digest: entry.Hash, scripts: p.Scripts}
	return p.Scripts, true
}

// --- sealed state (§5.5) ----------------------------------------------

// SealState increments the repository's TPM monotonic counter (see
// counterID in persist.go: one NV counter per tenant) and seals the
// repository's metadata indexes together with the counter value, so the
// state survives TSR restarts without trusting the disk.
func (r *Repo) SealState() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sealStateLocked()
}

// sealStateLocked is SealState with r.mu held. A repository that has
// published only ingested packages (no refresh yet) checkpoints with
// an empty upstream index.
func (r *Repo) sealStateLocked() ([]byte, error) {
	if r.localSig == nil {
		return nil, ErrNotInitialized
	}
	up := r.upstream
	if up == nil {
		up = &index.Index{}
	}
	mc := r.svc.cfg.TPM.IncrementCounter(r.counterID())
	blob := encodeState(mc, up.Encode(), r.localSig, r.seq, r.registeredEntriesLocked())
	return r.svc.Seal(blob)
}

// registeredEntriesLocked returns the operator-registered entries in
// name order (deterministic checkpoints).
func (r *Repo) registeredEntriesLocked() []index.Entry {
	if len(r.registered) == 0 {
		return nil
	}
	names := make([]string, 0, len(r.registered))
	for name := range r.registered {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]index.Entry, 0, len(names))
	for _, name := range names {
		out = append(out, r.registered[name])
	}
	return out
}

// RestoreState unseals a blob and verifies its monotonic counter value
// matches the TPM's current value, rejecting rolled-back state files.
func (r *Repo) RestoreState(sealed []byte) error {
	blob, err := r.svc.Unseal(sealed)
	if err != nil {
		return err
	}
	mc, upstreamRaw, localSig, seq, registered, err := decodeState(blob)
	if err != nil {
		return err
	}
	current := r.svc.cfg.TPM.ReadCounter(r.counterID())
	if mc != current {
		return fmt.Errorf("%w: sealed MC %d, TPM MC %d", ErrRollback, mc, current)
	}
	upstream, err := index.Decode(upstreamRaw)
	if err != nil {
		return err
	}
	local, err := localSig.Verify(keys.NewRing(r.signKey.Public()))
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.upstream = upstream
	r.local = local
	r.localSig = localSig
	r.seq = seq
	r.registered = make(map[string]index.Entry, len(registered))
	for _, e := range registered {
		r.registered[e.Name] = e
	}
	// Publish the restored state so serving resumes immediately (the
	// sanitization plan is rebuilt by the next refresh; until then,
	// requests are answered from the sanitized cache).
	r.publishLocked()
	return nil
}

// encodeState serializes (mc, upstream, localSigned, seq, registered).
// The registered chunk is appended only when non-empty, so checkpoints
// of tenants that never ingested are byte-identical to the historical
// format (and historical checkpoints decode cleanly).
func encodeState(mc uint64, upstream []byte, localSig *index.Signed, seq uint64, registered []index.Entry) []byte {
	var buf bytes.Buffer
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], mc)
	buf.Write(n[:])
	binary.BigEndian.PutUint64(n[:], seq)
	buf.Write(n[:])
	writeChunk(&buf, upstream)
	writeChunk(&buf, localSig.Raw)
	writeChunk(&buf, []byte(localSig.KeyName))
	writeChunk(&buf, localSig.Sig)
	if len(registered) > 0 {
		reg := &index.Index{Origin: "registered"}
		for _, e := range registered {
			reg.Add(e)
		}
		writeChunk(&buf, reg.Encode())
	}
	return buf.Bytes()
}

func decodeState(blob []byte) (mc uint64, upstream []byte, localSig *index.Signed, seq uint64, registered []index.Entry, err error) {
	buf := bytes.NewReader(blob)
	var n [8]byte
	if _, err = buf.Read(n[:]); err != nil {
		return 0, nil, nil, 0, nil, fmt.Errorf("tsr: sealed state: %w", err)
	}
	mc = binary.BigEndian.Uint64(n[:])
	if _, err = buf.Read(n[:]); err != nil {
		return 0, nil, nil, 0, nil, fmt.Errorf("tsr: sealed state: %w", err)
	}
	seq = binary.BigEndian.Uint64(n[:])
	upstream, err = readChunk(buf)
	if err != nil {
		return 0, nil, nil, 0, nil, err
	}
	raw, err := readChunk(buf)
	if err != nil {
		return 0, nil, nil, 0, nil, err
	}
	keyName, err := readChunk(buf)
	if err != nil {
		return 0, nil, nil, 0, nil, err
	}
	sig, err := readChunk(buf)
	if err != nil {
		return 0, nil, nil, 0, nil, err
	}
	if buf.Len() > 0 {
		regRaw, rerr := readChunk(buf)
		if rerr != nil {
			return 0, nil, nil, 0, nil, rerr
		}
		reg, rerr := index.Decode(regRaw)
		if rerr != nil {
			return 0, nil, nil, 0, nil, fmt.Errorf("tsr: sealed state: registered entries: %w", rerr)
		}
		registered = reg.Entries
	}
	return mc, upstream, &index.Signed{Raw: raw, KeyName: string(keyName), Sig: sig}, seq, registered, nil
}

func writeChunk(buf *bytes.Buffer, data []byte) { store.WriteChunk(buf, data) }

func readChunk(buf *bytes.Reader) ([]byte, error) {
	out, err := store.ReadChunk(buf)
	if err != nil {
		return nil, fmt.Errorf("tsr: sealed state: %w", err)
	}
	return out, nil
}

// Plan exposes the published sanitization plan (for examples and
// experiments); lock-free, with a refresh-side fallback before the
// first publish.
func (r *Repo) Plan() *sanitize.Plan {
	if snap := r.served.Load(); snap != nil {
		return snap.plan
	}
	if !r.mu.TryLock() {
		return nil // first refresh in flight; nothing published yet
	}
	defer r.mu.Unlock()
	return r.plan
}

// scriptPreview returns the sanitized post-install script of a package
// (diagnostic helper used by the HTTP API).
func (r *Repo) scriptPreview(name string) (string, error) {
	raw, err := r.FetchPackage(name)
	if err != nil {
		return "", err
	}
	p, err := apk.Decode(raw)
	if err != nil {
		return "", err
	}
	var out string
	for _, hook := range p.ScriptNames() {
		out += "# hook: " + hook + "\n" + p.Scripts[hook]
	}
	if out == "" {
		return "", nil
	}
	if _, err := script.Parse(out); err != nil {
		return "", err
	}
	return out, nil
}
