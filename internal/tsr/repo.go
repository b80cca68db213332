package tsr

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
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
		return maps.Clone(snap.rejected)
	}
	if !r.mu.TryLock() {
		// Nothing published yet and the first refresh is in flight:
		// report the empty pre-publish state instead of blocking a read
		// on the pipeline.
		return map[string]string{}
	}
	defer r.mu.Unlock()
	return maps.Clone(r.rejected)
}

// Findings returns the security findings of the plan Plan returns.
func (r *Repo) Findings() []sanitize.Finding {
	plan := r.Plan()
	if plan == nil {
		return nil
	}
	return append([]sanitize.Finding(nil), plan.Findings...)
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
// publishNextLocked, and any early error return keeps the old snapshot
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

// obtainOriginal returns the original package bytes, from the
// original cache when allowed, else from a mirror (verifying size and
// hash against the trusted upstream index entry). The returned count is
// the number of bytes downloaded over the network (zero on cache hit);
// the caller charges the modeled transfer time via chargeDownload.
// cached says whether the original cache is in use (any mode but
// CacheNone); passing it explicitly lets refresh workers call this
// without holding the repository lock.
func (r *Repo) obtainOriginal(cached bool, name string, entry index.Entry) ([]byte, int64, error) {
	if cached {
		if raw, err := r.svc.cfg.Store.Get(r.origKey(name, entry.Hash)); err == nil {
			if entry.Matches(raw) {
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
		if !entry.Matches(raw) {
			lastErr = fmt.Errorf("tsr: mirror served wrong bytes for %s", name)
			continue
		}
		if cached {
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

// chargeBatchDownloads accounts one worker batch of n items, item i
// having downloaded dlBytes(i) bytes (zero means a cache hit): the
// downloads are charged as one round of concurrent transfers.
func (r *Repo) chargeBatchDownloads(stats *RefreshStats, n int, dlBytes func(i int) int64) {
	var total int64
	count := 0
	for i := 0; i < n; i++ {
		if b := dlBytes(i); b > 0 {
			total += b
			count++
		}
	}
	stats.Downloaded += count
	stats.DownloadTime += r.chargeDownload(total, count)
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
	if !entry.Matches(cached) {
		return nil, false // stale or tampered original cache; do not trust
	}
	p, err := apk.DecodeMeta(cached)
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
	p, err := apk.DecodeMeta(raw)
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
