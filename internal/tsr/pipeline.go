package tsr

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/sanitize"
	"tsr/internal/sched"
	"tsr/internal/trace"
)

// The origin pipeline (§5.4): sanitize inside the enclave, sign the next
// local index, publish it. Refresh runs it over the upstream index as a
// cycle of stages; ingest runs it over an operator batch. Both lease
// their worker batches through runBatches, resolve each package through
// sanitizeCached, and end in publishNextLocked — the one place a
// repository signs, so each sequence number is signed exactly once.

// runBatches runs work(i) for every i in [0, n) in batches of at most
// workers goroutines leased from the global pool (a batch shrinks while
// other tenants hold slots, bounding the fleet-wide total). done, when
// non-nil, accounts each batch [lo, hi) before its slots are released.
func runBatches(g *sched.Grant, workers, n int, work func(i int), done func(lo, hi int)) {
	for lo := 0; lo < n; {
		hi := lo + g.Acquire(min(workers, n-lo))
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(i)
			}()
		}
		wg.Wait()
		if done != nil {
			done(lo, hi)
		}
		g.Release(hi - lo)
		lo = hi
	}
}

// sanitizer returns the enclave sanitizer for plan under this
// repository's signer ring and signing key. With memoized, the per-file
// signatures go through the repository's signature memo and the data
// runs through its run memo, so a version bump re-signs and re-deflates
// only the files whose bytes changed; refresh and ingest sanitize that
// way. Serve-time re-sanitization (Figure 10's Original and None
// scenarios) runs without them and signs and deflates every file, as
// the paper measures.
func (r *Repo) sanitizer(plan *sanitize.Plan, memoized bool) *sanitize.Sanitizer {
	s := &sanitize.Sanitizer{Plan: plan, TrustRing: r.trust, SignKey: r.signKey, EPC: r.svc.cfg.EPC}
	if memoized {
		s.Memo, s.Runs = r.memo, r.runs
	}
	return s
}

// sanOut is the outcome of one cache-or-sanitize step: an error, a
// policy rejection, or the entry of the sanitized package. Workers keep
// only this metadata, never the full sanitize.Result.
type sanOut struct {
	entry      index.Entry // describes the SANITIZED bytes
	cacheHit   bool
	native     time.Duration // measured sanitization CPU time (fresh only)
	workingSet int64         // modeled enclave working set (fresh only)
	dlBytes    int64         // original bytes downloaded from a mirror
	reject     string
	err        error
}

// fresh reports whether the step sanitized (a cache miss that succeeded).
func (o *sanOut) fresh() bool { return o.err == nil && o.reject == "" && !o.cacheHit }

// sanitizeCached resolves original package e to its sanitized entry
// under san's plan (hash planHash). When cached, the sealed cache keyed
// by (original digest, plan hash) is read first and filled after a
// miss. A miss sanitizes raw — obtained first when nil — and stores the
// bytes by content hash. Packages with unsupported scripts or not
// "created by trusted entities" are a rejection (§4.5), not an error.
func (r *Repo) sanitizeCached(san *sanitize.Sanitizer, planHash [32]byte, e index.Entry, raw []byte, cached bool) (out sanOut) {
	key := r.sanCacheKey(e.Hash, planHash)
	out.entry = e
	if cached {
		if ce, err := r.loadCacheEntry(key); err == nil {
			out.entry.Size, out.entry.Hash = ce.Size, ce.Hash
			out.cacheHit = true
			return out
		}
	}
	if raw == nil {
		if raw, out.dlBytes, out.err = r.obtainOriginal(cached, e.Name, e); out.err != nil {
			return out
		}
	}
	res, err := san.Sanitize(raw)
	if err != nil {
		if errors.Is(err, sanitize.ErrUnsupported) || errors.Is(err, apk.ErrUntrusted) {
			out.reject = err.Error()
		} else {
			out.err = fmt.Errorf("tsr: sanitizing %s: %w", e.Name, err)
		}
		return out
	}
	sum := sha256.Sum256(res.Raw)
	if out.err = r.svc.cfg.Store.Put(r.sanitizedKey(e.Name, sum), res.Raw); out.err != nil {
		return out
	}
	if cached {
		if out.err = r.storeCacheEntry(cacheEntry{Key: key, Size: int64(len(res.Raw)), Hash: sum}); out.err != nil {
			return out
		}
	}
	out.entry.Size, out.entry.Hash = int64(len(res.Raw)), sum
	out.native = res.Phases.Total()
	out.workingSet = res.WorkingSet
	return out
}

// publishNextLocked is the one place a repository signs its local
// index. The sequence is reserved before signing: it is the value of
// the tenant's TPM monotonic counter after one increment, so no
// sequence is ever signed twice under the key — not across a crash, a
// rolled-back data dir or a lost checkpoint, all of which restart the
// repository cold with the counter intact. Only after signing does
// commit (nil for none) move the caller's refresh-side state, and the
// new index and that state become visible together in one atomic
// publish. A signing failure leaves the repository untouched and the
// sequence a harmless gap. Caller holds r.mu.
func (r *Repo) publishNextLocked(newLocal *index.Index, commit func()) error {
	newLocal.Sequence = r.svc.cfg.TPM.IncrementCounter(r.counterID())
	signed, err := index.Sign(newLocal, r.signKey)
	if err != nil {
		return err
	}
	if commit != nil {
		commit()
	}
	r.local, r.localSig, r.seq = newLocal, signed, newLocal.Sequence
	r.publishLocked()
	return nil
}

// autoCheckpointLocked seals what was just published under AutoPersist,
// so a crash at any later instant restarts warm into it. The publish
// stands either way: a failure means degraded durability, not a rollback.
func (r *Repo) autoCheckpointLocked(op string) error {
	if !r.svc.cfg.AutoPersist {
		return nil
	}
	if err := r.checkpointLocked(); err != nil {
		return fmt.Errorf("tsr: %s published but checkpoint failed: %w", op, err)
	}
	return nil
}

// cycle is one refresh's working state, handed from stage to stage.
// Each stage opens its span with next, as a direct child of the caller's
// span: refresh.quorum, .fetch, .plan, .sanitize, .sign, .publish, .seal.
type cycle struct {
	r     *Repo
	g     *sched.Grant
	ctx   context.Context
	sp    *trace.Span // the stage in flight
	stats *RefreshStats

	upstream       *index.Index // verified upstream index this cycle plans against
	upstreamFloor  index.Floor  // the freshness floor accepting it yields
	upstreamDigest [32]byte
	work           []string          // added/changed packages, plus plan debt, to fetch
	inWork         map[string]bool   // work as a set
	raws           map[string][]byte // fetched originals awaiting sanitization
	failed         map[string]string // per-package failures: name -> message
	planDebt       map[string]bool   // packages whose current scripts did not inform the plan
	plan           *sanitize.Plan
	planHash       [32]byte
	targets        []index.Entry // packages the sanitize stage resolves
	carried        []index.Entry // CacheNone: unchanged packages' previous entries
	souts          []sanOut      // sanitize outcome per target
	local          *index.Index  // the index this cycle signs
	pinned         map[string]index.Entry
	old            struct { // the generation this cycle replaces, captured at commit
		local, upstream *index.Index
		pinned          map[string]index.Entry
		planHash        [32]byte
	}
}

func (c *cycle) next(stage string) {
	c.sp.End()
	_, c.sp = trace.Start(c.ctx, stage) //lint:allow spanend every stage span is ended by the following next or by refreshGranted's deferred close
}

// refreshGranted is the refresh cycle, admitted by the scheduler and
// leasing worker slots from g. The deferred close ends the stage in
// flight — on early error unwinds too — and attributes the error to it.
func (r *Repo) refreshGranted(ctx context.Context, g *sched.Grant) (_ *RefreshStats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &cycle{r: r, g: g, ctx: ctx, stats: &RefreshStats{Workers: r.workers}}
	defer func() { c.sp.SetError(err); c.sp.End() }()

	if err = c.quorum(); err != nil {
		return nil, err
	}
	c.fetch()
	if err = c.buildPlan(); err != nil {
		return nil, err
	}
	c.sanitize()
	if err = c.sign(); err != nil {
		return nil, err
	}
	c.retire()
	return c.stats, c.seal()
}

// quorum reads and verifies the upstream index from the mirror quorum,
// refuses a replayed one, and lists the packages to fetch: on the first
// refresh everything is "added".
func (c *cycle) quorum() error {
	r := c.r
	c.next("refresh.quorum")
	qres, err := r.reader.Read()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrUpstream, err)
	}
	c.stats.QuorumLatency = qres.Elapsed
	c.stats.MirrorsContacted = qres.Contacted
	up, floor, err := index.AcceptIndex(r.upstreamFloor, qres.Index, r.trust)
	if errors.Is(err, index.ErrStale) || errors.Is(err, index.ErrFork) {
		// A quorum of mirrors agreeing on an older index than one we
		// already accepted (or on a second one at its sequence): treat
		// as replay and refuse.
		return fmt.Errorf("%w: %w: upstream %w", ErrUpstream, ErrRollback, err)
	}
	if err != nil {
		return fmt.Errorf("%w: verifying upstream index: %w", ErrUpstream, err)
	}
	c.upstream, c.upstreamFloor, c.upstreamDigest = up, floor, qres.Index.Digest()

	var added, changed []string
	if r.upstream == nil {
		added = up.Names()
	} else {
		added, changed, _ = index.Diff(r.upstream, up)
	}
	c.work = make([]string, 0, len(added)+len(changed))
	c.inWork = make(map[string]bool, len(added)+len(changed))
	for _, name := range append(append([]string(nil), added...), changed...) {
		// The §4.5 private/closed policy variant: packages outside the
		// whitelist (or on the blacklist) are excluded up front.
		if !r.policy.Allows(name) {
			r.rejected[name] = "excluded by policy whitelist/blacklist"
			c.stats.Rejected++
			continue
		}
		c.work = append(c.work, name)
		c.inWork[name] = true
	}
	// Re-fetch packages carrying plan debt: their current scripts never
	// informed the plan (the fetch failed), so they must be retried
	// even though the upstream diff does not list them.
	for name := range r.planDebt {
		if c.inWork[name] || !r.policy.Allows(name) {
			continue
		}
		if _, err := up.Lookup(name); err != nil {
			continue
		}
		c.work = append(c.work, name)
		c.inWork[name] = true
	}
	c.stats.Unchanged = len(up.Entries) - len(c.work)
	return nil
}

// fetch obtains the originals of the work list in worker batches and
// reads their scripts for the plan scan. Each batch of concurrent
// transfers costs one round trip plus its aggregate payload at the path
// bandwidth. Failures are per-package, not fatal.
func (c *cycle) fetch() {
	r := c.r
	c.next("refresh.fetch")
	type fetchOut struct {
		raw     []byte
		dlBytes int64
		scripts map[string]string
		decoded bool
		err     error
	}
	outs := make([]fetchOut, len(c.work))
	runBatches(c.g, r.workers, len(c.work), func(i int) {
		out := &outs[i]
		entry, err := c.upstream.Lookup(c.work[i])
		if err != nil {
			out.err = err
			return
		}
		out.raw, out.dlBytes, out.err = r.obtainOriginal(r.mode != CacheNone, entry.Name, entry)
		if out.err != nil {
			return
		}
		// The scripts come from the head members alone. The data member
		// is inflated and checked once, by the sanitize stage's Rewrite,
		// which fails a package whose data does not hash before any
		// output of it exists.
		if p, err := apk.DecodeHead(out.raw); err == nil {
			out.scripts, out.decoded = p.Scripts, true
		}
	}, func(lo, hi int) {
		r.chargeBatchDownloads(c.stats, hi-lo, func(i int) int64 { return outs[lo+i].dlBytes })
	})
	// Plan debt: packages whose scripts at the current upstream version
	// are still unknown after the fetch. They keep forcing plan rebuilds
	// and re-fetches until they heal — reusing a plan that never saw a
	// package's scripts would strip its account commands without
	// provisioning the accounts.
	c.failed = make(map[string]string)
	c.raws = make(map[string][]byte, len(c.work))
	c.planDebt = make(map[string]bool)
	for i, name := range c.work {
		if outs[i].err != nil {
			c.failed[name] = outs[i].err.Error()
			c.planDebt[name] = true
			continue
		}
		c.raws[name] = outs[i].raw
		if outs[i].decoded {
			if entry, err := c.upstream.Lookup(name); err == nil {
				r.scripts[name] = scriptsEntry{digest: entry.Hash, scripts: outs[i].scripts}
			}
		} else {
			c.planDebt[name] = true
		}
	}
}

// buildPlan (re)builds the sanitization plan from ALL package scripts
// (the repository-wide scan of §4.2). When the upstream index is
// byte-identical to the last one planned against — and no package
// carries plan debt — the existing plan is reused outright; otherwise
// the scan runs over the script cache, decoding only packages it has
// not seen.
func (c *cycle) buildPlan() error {
	r := c.r
	c.next("refresh.plan")
	c.plan = r.plan
	if c.plan == nil || c.upstreamDigest != r.upstreamDigest || len(r.planDebt) > 0 || len(c.planDebt) > 0 {
		plan, err := sanitize.BuildPlan(&scriptCacheSource{repo: r, idx: c.upstream, failed: c.failed}, r.policy.InitConfigFiles, r.memo)
		if err != nil {
			return err
		}
		c.plan = plan
	}
	c.planHash = c.plan.Hash()
	return nil
}

// sanitize resolves every policy-allowed package of the upstream index
// (plus the operator-registered ones) through sanitizeCached in worker
// batches. The content-addressed cache decides which actually get
// sanitized, so unchanged packages under an unchanged plan cost one
// sealed-metadata read regardless of why they were targeted. Packages
// that failed the fetch are skipped; previously rejected packages stay
// rejected without a new attempt while their (digest, plan) pair is
// unchanged. Under CacheNone the sanitization cache is off, so unchanged
// packages carry their previous index entries forward instead of being
// re-sanitized (CacheNone is a Figure 10 package *serving* scenario; the
// refresh stays incremental).
func (c *cycle) sanitize() {
	r := c.r
	c.next("refresh.sanitize")
	skip := func(e index.Entry) bool {
		_, failed := c.failed[e.Name]
		return failed || !r.policy.Allows(e.Name) || r.rejectedKey[e.Name] == r.sanCacheKey(e.Hash, c.planHash)
	}
	replanned := c.planHash != r.planHash
	c.targets = make([]index.Entry, 0, len(c.upstream.Entries))
	for _, e := range c.upstream.Entries {
		if skip(e) {
			continue
		}
		if r.mode == CacheNone && !replanned && !c.inWork[e.Name] && r.local != nil {
			if old, err := r.local.Lookup(e.Name); err == nil {
				c.carried = append(c.carried, old)
				continue
			}
		}
		c.targets = append(c.targets, e)
	}
	// Operator-registered packages (batched ingest) join the targets —
	// their originals sit in the cache under the same content-addressed
	// keys, so the sanitization cache treats them exactly like upstream
	// packages. An upstream package of the same name shadows the
	// registration (the mirror fleet outranks the operator).
	for _, e := range r.registeredEntriesLocked() {
		if _, err := c.upstream.Lookup(e.Name); err != nil && !skip(e) {
			c.targets = append(c.targets, e)
		}
	}

	// Peak memory is the fetched originals still awaiting sanitization
	// plus one batch of in-flight packages — not the whole repository's
	// results: each batch's originals are released once it completes.
	san := r.sanitizer(c.plan, true)
	c.souts = make([]sanOut, len(c.targets))
	runBatches(c.g, r.workers, len(c.targets), func(i int) {
		e := c.targets[i]
		c.souts[i] = r.sanitizeCached(san, c.planHash, e, c.raws[e.Name], r.mode != CacheNone)
	}, func(lo, hi int) {
		// Charge the batch's modeled costs: downloads as one round of
		// concurrent transfers, and SGX paging from the batch's
		// combined working set (worker threads share the EPC).
		batch := c.souts[lo:hi]
		r.chargeBatchDownloads(c.stats, len(batch), func(i int) int64 { return batch[i].dlBytes })
		var workingSets []int64
		for i := range batch {
			if batch[i].fresh() {
				workingSets = append(workingSets, batch[i].workingSet)
			}
		}
		if f := r.svc.cfg.EPC.SharedFactor(workingSets); f > 1 && len(workingSets) > 0 {
			for i := range batch {
				if batch[i].fresh() {
					c.stats.SGXOverhead += time.Duration(float64(batch[i].native) * (f - 1))
				}
			}
		}
		// The originals of this batch are no longer needed in memory
		// (serving paths re-read them from the original cache).
		for _, e := range c.targets[lo:hi] {
			delete(c.raws, e.Name)
		}
	})
}

// sign rebuilds the local index from cache hits plus fresh results and
// publishes it through publishNextLocked, whose commit opens the
// publish stage once the signature exists.
func (c *cycle) sign() error {
	r := c.r
	c.next("refresh.sign")
	c.local = &index.Index{Origin: "tsr-" + r.ID}
	for i := range c.souts {
		out := &c.souts[i]
		name := c.targets[i].Name
		switch {
		case out.err != nil:
			c.failed[name] = out.err.Error()
		case out.reject != "":
			r.rejected[name] = out.reject
			r.rejectedKey[name] = r.sanCacheKey(c.targets[i].Hash, c.planHash)
			c.stats.Rejected++
		default:
			delete(r.rejected, name)
			delete(r.rejectedKey, name)
			c.local.Add(out.entry)
			if out.cacheHit {
				c.stats.CacheHits++
			} else {
				c.stats.Sanitized++
				c.stats.SanitizeTime += out.native
			}
		}
	}
	for _, e := range c.carried {
		c.local.Add(e)
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
	c.pinned = make(map[string]index.Entry)
	for name, msg := range c.failed {
		c.stats.Errors = append(c.stats.Errors, PackageError{Name: name, Err: msg})
		if c.planHash == r.planHash && r.local != nil {
			if old, err := r.local.Lookup(name); err == nil {
				c.local.Add(old)
				if pe, ok := r.pinned[name]; ok {
					c.pinned[name] = pe
				} else if r.upstream != nil {
					if pe, err := r.upstream.Lookup(name); err == nil {
						c.pinned[name] = pe
					}
				}
			}
		}
	}
	sort.Slice(c.stats.Errors, func(i, j int) bool { return c.stats.Errors[i].Name < c.stats.Errors[j].Name })
	return r.publishNextLocked(c.local, c.commit)
}

// commit moves the repository's refresh-side state to this cycle's
// generation. publishNextLocked runs it after signing, just before the
// new snapshot is published.
func (c *cycle) commit() {
	r := c.r
	c.next("refresh.publish")
	// Evict state for packages that left the upstream: script cache and
	// rejection bookkeeping would otherwise grow forever under churn.
	// Registered packages live outside the upstream index, so their
	// state survives until Unregister.
	for name := range r.scripts {
		if _, ok := r.registered[name]; ok {
			continue
		}
		if _, err := c.upstream.Lookup(name); err != nil {
			delete(r.scripts, name)
		}
	}
	for name := range r.rejected {
		if _, ok := r.registered[name]; ok {
			continue
		}
		if _, err := c.upstream.Lookup(name); err != nil {
			delete(r.rejected, name)
			delete(r.rejectedKey, name)
		}
	}
	c.old.local, c.old.upstream, c.old.pinned, c.old.planHash = r.local, r.upstream, r.pinned, r.planHash
	r.upstream = c.upstream
	r.upstreamFloor = c.upstreamFloor
	r.upstreamDigest = c.upstreamDigest
	r.plan = c.plan
	r.planHash = c.planHash
	r.pinned = c.pinned
	r.planDebt = c.planDebt
}

// retire deletes the cache generations only the replaced state
// referenced, then books the cycle into the cumulative counters.
func (c *cycle) retire() {
	r := c.r
	del := func(key string) { _ = r.svc.cfg.Store.Delete(key) }
	// Byte blobs addressed by (name, hash) pairs that appear in the
	// outgoing indexes but in neither the incoming ones nor the pinned
	// set that on-demand rebuilds still need. A sanitized blob takes the
	// chunk manifest stored beside it along. Old-snapshot readers in
	// flight at publish time can race an eviction; FetchPackageTracedCtx
	// retries against the fresh snapshot when that happens.
	if c.old.local != nil {
		for _, e := range c.old.local.Entries {
			if ne, err := c.local.Lookup(e.Name); err == nil && ne.Hash == e.Hash {
				continue
			}
			key := r.sanitizedKey(e.Name, e.Hash)
			del(key)
			del(key + ManifestSuffix)
		}
	}
	evictOrig := func(name string, hash [32]byte) {
		if pe, ok := c.pinned[name]; ok && pe.Hash == hash {
			return
		}
		if re, ok := r.registered[name]; ok && re.Hash == hash {
			return
		}
		if ne, err := c.upstream.Lookup(name); err == nil && ne.Hash == hash {
			return
		}
		del(r.origKey(name, hash))
	}
	if c.old.upstream != nil {
		for _, e := range c.old.upstream.Entries {
			evictOrig(e.Name, e.Hash)
		}
	}
	for name, pe := range c.old.pinned {
		evictOrig(name, pe.Hash)
	}
	// The sealed sanitization-cache metadata follows its generation:
	// (digest, plan) pairs the new state no longer produces are deleted
	// together with their byte blobs. Otherwise a recurring pair — e.g.
	// an upstream version rollback A→B→A — would cache-hit metadata
	// whose sanitized bytes were evicted with the old generation and
	// publish an index entry with no bytes behind it. (After a
	// ForceReplan oldPlanHash is zero and these deletes address keys
	// that never existed — harmless no-ops.) Registered packages'
	// metadata under an outgoing plan is equally stale (their bytes were
	// re-sanitized above).
	if c.old.planHash != c.planHash {
		for _, e := range r.registered {
			del(r.sanCacheKey(e.Hash, c.old.planHash))
		}
	}
	if c.old.upstream != nil {
		for _, e := range c.old.upstream.Entries {
			if c.old.planHash == c.planHash {
				if ne, err := c.upstream.Lookup(e.Name); err == nil && ne.Hash == e.Hash {
					continue
				}
			}
			del(r.sanCacheKey(e.Hash, c.old.planHash))
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
		keep := make(map[string]struct{}, len(c.local.Entries)+len(c.upstream.Entries)+len(c.pinned))
		for _, e := range c.local.Entries {
			key := r.sanitizedKey(e.Name, e.Hash)
			keep[key] = struct{}{}
			keep[key+ManifestSuffix] = struct{}{}
		}
		for _, e := range c.upstream.Entries {
			keep[r.origKey(e.Name, e.Hash)] = struct{}{}
		}
		for name, pe := range c.pinned {
			keep[r.origKey(name, pe.Hash)] = struct{}{}
		}
		for name, re := range r.registered {
			keep[r.origKey(name, re.Hash)] = struct{}{}
		}
		for key := range recorded {
			if _, ok := keep[key]; !ok {
				del(key)
			}
		}
	}

	r.totals.refreshes.Add(1)
	r.totals.cacheHits.Add(int64(c.stats.CacheHits))
	r.totals.sanitized.Add(int64(c.stats.Sanitized))
	r.totals.rejected.Add(int64(c.stats.Rejected))
	r.totals.downloaded.Add(int64(c.stats.Downloaded))
	r.totals.failed.Add(int64(len(c.stats.Errors)))
}

// seal checkpoints the published generation under AutoPersist.
func (c *cycle) seal() error {
	if c.r.svc.cfg.AutoPersist {
		c.next("refresh.seal")
	}
	return c.r.autoCheckpointLocked("refresh")
}
