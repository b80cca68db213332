package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"tsr/internal/attest"
	"tsr/internal/edge"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/osimage"
	"tsr/internal/pkgmgr"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// runOpts selects how one workload run is made.
type runOpts struct {
	seed    int64
	window  time.Duration
	setups  int // how many times set-up runs; the last one is measured on
	clients int // closed-loop clients: 2 end to end, 1 when traced
	sizing  sizing
	seams   seams
	outDir  string
	// atOps is where a single-client run snapshots the program's
	// counters (ops, cycles or generations, per workload); 0 = never.
	atOps int
	// keepWorld leaves the last world running for the layer calls.
	keepWorld bool
}

// runResult is what one workload run measured.
type runResult struct {
	workload  string
	clients   int
	setups    []float64 // seconds
	busy      time.Duration
	ops       int64 // units of work completed and verified
	attempted int64
	failed    int64
	errs      []string
	headline  []float64 // ms
	nochange  []float64 // ms
	wireKB    float64   // per unit of work
	proc      procMeter
	catalog   catalogActuals
	// primaryMs of totalMs op time went to the layer the workload loads.
	primaryMs, totalMs float64
	// counters are the program's own counters at atOps.
	counters map[string]int64
	// phases are per-layer metrics only this workload's own phases give.
	phases map[string]measurement
	world  *world
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// absorb folds the clients' tallies and the checker's verdicts in.
func (r *runResult) absorb(v *verifier, clients ...*loadClient) {
	for _, c := range clients {
		r.attempted += c.attempted
		r.failed += c.failed
		r.ops += c.attempted - c.failed
		r.wireKB += float64(c.bytesIn) / 1e3
		r.errs = append(r.errs, c.errs...)
	}
	r.wireKB /= float64(max(r.ops, 1))
	for _, viol := range v.chk.Violations() {
		r.fail("wrong data: %s", viol)
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const minSetupTime = 2 * time.Second

// closer is a set-up product that holds servers, connections or files.
type closer interface{ close() }

// repeatSetup runs build n times, timing each, and returns the last
// product; earlier ones are closed and collected so the window starts
// from the same heap whatever n is. A cheap set-up (refresh_cycle's is a
// third of a second) is repeated further, up to 3n times or minSetupTime
// in all, because its median is otherwise the noisiest number of the run.
func repeatSetup[T closer](n int, build func() (T, error)) (T, []float64, error) {
	var last T
	var secs []float64
	begin := time.Now()
	for i := 0; i < n || (n > 1 && i < 3*n && time.Since(begin) < minSetupTime); i++ {
		if i > 0 {
			last.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if last, err = build(); err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return last, secs, nil
}

type workloadFunc func(ctx context.Context, o runOpts) (*runResult, error)

var workloadFuncs = map[string]workloadFunc{
	"index_poll":    runIndexPoll,
	"package_fetch": runPackageFetch,
	"refresh_cycle": runRefreshCycle,
	"fleet_update":  runFleetUpdate,
}

// --- the two read workloads ---------------------------------------------

// readSetup is a served world with verified reference data and clients.
type readSetup struct {
	w       *world
	v       *verifier
	clients []*loadClient
}

func (s *readSetup) close() { s.w.close() }

// serveWorld brings a world up to a refreshed origin behind HTTP with
// its first generation recorded as the verifier's reference.
func serveWorld(ctx context.Context, cat catalogSpec, o runOpts) (_ *world, _ *verifier, err error) {
	w, err := newWorld(cat, o.seed, o.seams)
	if err != nil {
		return nil, nil, err
	}
	defer w.closeOnError(&err)
	if err := w.startOrigin(store.NewMem(), false); err != nil {
		return nil, nil, err
	}
	if err := w.serveOrigin(); err != nil {
		return nil, nil, err
	}
	if _, err := w.refresh(ctx); err != nil {
		return nil, nil, err
	}
	v := newVerifier(w.ring)
	return w, v, w.recordGeneration(v)
}

// closeOnError stops a half-built world when its set-up fails.
func (w *world) closeOnError(err *error) {
	if *err != nil {
		w.close()
	}
}

func (w *world) recordGeneration(v *verifier) error {
	signed, err := w.tenant.FetchIndex()
	if err != nil {
		return err
	}
	return v.addGeneration(signed)
}

// warmUp runs every client for n ops outside the window, then clears
// what they tallied (a failed warm-up op still fails the run).
func warmUp(ctx context.Context, clients []*loadClient, n int) error {
	for _, c := range clients {
		for i := 0; i < n; i++ {
			c.step(ctx)
		}
		if c.failed > 0 {
			return fmt.Errorf("bench: warm-up: %d of %d ops failed: %v", c.failed, c.attempted, c.errs)
		}
		c.ops, c.attempted, c.bytesIn = 0, 0, 0
		for k := range c.lat {
			c.lat[k] = nil
		}
	}
	return nil
}

// runReads measures the window of a read workload.
func runReads(ctx context.Context, name string, o runOpts, s *readSetup, secs []float64, headline, nochange opKind) *runResult {
	res := &runResult{workload: name, clients: len(s.clients), setups: secs, catalog: s.w.actuals()}
	res.proc.start()
	start := time.Now()
	runClients(ctx, s.clients, o.window, o.atOps, func() { res.counters = s.w.counters() })
	res.busy = time.Since(start)
	res.proc.stop()
	res.absorb(s.v, s.clients...)
	for _, c := range s.clients {
		res.headline = append(res.headline, c.lat[headline]...)
		res.nochange = append(res.nochange, c.lat[nochange]...)
		for k, lat := range c.lat {
			t := sum(lat)
			res.totalMs += t
			if opKind(k).isIndex() == headline.isIndex() {
				res.primaryMs += t
			}
		}
	}
	res.phases = s.w.servingPhases()
	res.world = s.w
	if !o.keepWorld {
		s.w.close()
	}
	return res
}

// counters are the program's own counters, compared between a traced
// and an untraced run of the same op sequence. Only counts: each world
// deploys a tenant with a fresh signing key, so signatures — and with
// them compressed sizes and chunk boundaries — differ by a few bytes
// between any two worlds, traced or not.
func (w *world) counters() map[string]int64 {
	out := make(map[string]int64)
	cs := w.tenant.CacheStats()
	out["origin.index_reads"] = cs.IndexReads
	out["origin.package_reads"] = cs.PackageReads
	out["origin.not_modified"] = cs.NotModified
	out["origin.delta_reads"] = cs.DeltaReads
	out["origin.manifest_reads"] = cs.ManifestReads
	out["origin.range_reads"] = cs.RangeReads
	out["origin.streamed_serves"] = cs.StreamedServes
	out["origin.sanitized"] = cs.Sanitized
	out["origin.cache_hits"] = cs.CacheHits
	out["origin.refreshes"] = cs.Refreshes
	if w.replica != nil {
		es := w.replica.Stats()
		out["edge.syncs"] = es.Syncs
		out["edge.delta_syncs"] = es.DeltaSyncs
		out["edge.index_reads"] = es.IndexReads
		out["edge.package_reads"] = es.PackageReads
		out["edge.package_hits"] = es.PackageHits
		out["edge.origin_packages"] = es.OriginPackages
		out["edge.not_modified"] = es.NotModified
		out["edge.delta_reads"] = es.DeltaReads
		out["edge.diff_pulls"] = es.DiffPulls
		out["edge.diff_fallbacks"] = es.DiffFallbacks
		out["edge.streamed_serves"] = es.StreamedServes
		out["edge.evictions"] = es.Evictions
		ws := w.edgeUpstream.WireStats()
		out["wire.range_requests"] = ws.RangeRequests
		out["wire.full_fetches"] = ws.FullFetches
		out["wire.diff_fetches"] = ws.DiffFetches
		out["wire.chunks_fetched"] = ws.ChunksFetched
	}
	return out
}

// servingPhases are the per-layer metrics the edge's counters give.
func (w *world) servingPhases() map[string]measurement {
	out := make(map[string]measurement)
	if w.replica == nil {
		return out
	}
	es := w.replica.Stats()
	if es.PackageReads > 0 {
		out["edge.cache_hit_ratio"] = measurement{Value: float64(es.PackageHits) / float64(es.PackageReads), Unit: "ratio"}
	}
	out["store.evictions"] = measurement{Value: float64(es.Evictions), Unit: "count"}
	out["store.bytes"] = measurement{Value: float64(es.CacheBytes), Unit: "B"}
	return out
}

// runIndexPoll: catalog-wide, warm origin and warm edge, both holding
// the previous generation so deltas can be served; client 0 polls the
// edge and client 1 the origin (a single traced client alternates).
func runIndexPoll(ctx context.Context, o runOpts) (*runResult, error) {
	s, secs, err := repeatSetup(o.setups, func() (_ *readSetup, err error) {
		w, v, err := serveWorld(ctx, o.sizing.Wide, o)
		if err != nil {
			return nil, err
		}
		defer w.closeOnError(&err)
		s := &readSetup{w: w, v: v}
		if err := w.startEdge(ctx, edge.DefaultCacheBudget); err != nil {
			return nil, err
		}
		// A second generation, so origin and edge both retain a base
		// for GET /index/delta.
		if err := w.bump(w.fillers[:min(4, len(w.fillers))]); err != nil {
			return nil, err
		}
		if _, err := w.refresh(ctx); err != nil {
			return nil, err
		}
		if err := w.recordGeneration(v); err != nil {
			return nil, err
		}
		if err := w.replica.SyncCtx(ctx); err != nil {
			return nil, err
		}
		if o.clients == 1 {
			s.clients = []*loadClient{newLoadClient(w, v, 0, indexPollMix, nil, w.edgeSrv, w.originSrv)}
		} else {
			s.clients = []*loadClient{
				newLoadClient(w, v, 0, indexPollMix, nil, w.edgeSrv),
				newLoadClient(w, v, 1, indexPollMix, nil, w.originSrv),
			}
		}
		if err := warmUp(ctx, s.clients, o.sizing.WarmupOps); err != nil {
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return runReads(ctx, "index_poll", o, s, secs, opIndexGzip, opIndex304), nil
}

// runPackageFetch: catalog-real behind an edge whose cache holds two
// fifths of the working set, pre-warmed by one pass; Zipf(1.1) reads.
func runPackageFetch(ctx context.Context, o runOpts) (*runResult, error) {
	s, secs, err := repeatSetup(o.setups, func() (_ *readSetup, err error) {
		w, v, err := serveWorld(ctx, o.sizing.Real, o)
		if err != nil {
			return nil, err
		}
		defer w.closeOnError(&err)
		s := &readSetup{w: w, v: v}
		hot := hotOrder(v.ix.Entries)
		var working int64
		for _, e := range hot {
			body, err := w.tenant.FetchPackage(e.Name)
			if err != nil {
				return nil, err
			}
			v.bodies[e.Name] = body
			working += e.Size
		}
		if err := w.startEdge(ctx, working*2/5); err != nil {
			return nil, err
		}
		for i := 0; i < o.clients; i++ {
			s.clients = append(s.clients, newLoadClient(w, v, i, packageFetchMix, hot, w.edgeSrv))
		}
		// One pass, coldest first, so the LRU ends up holding the head
		// of the popularity order.
		c := s.clients[0]
		for i := len(hot) - 1; i >= 0; i-- {
			if _, err := c.perform(ctx, opPkgFull, c.bases[0], hot[i], 0); err != nil {
				return nil, fmt.Errorf("bench: pre-warm %s: %w", hot[i].Name, err)
			}
		}
		c.bytesIn = 0
		if err := warmUp(ctx, s.clients, o.sizing.WarmupOps); err != nil {
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return runReads(ctx, "package_fetch", o, s, secs, opPkgFull, opPkg304), nil
}

// --- refresh_cycle ------------------------------------------------------

// runRefreshCycle: no HTTP. Each cycle deploys a fresh tenant on a
// fresh store.FS data dir, then times one cold refresh, nine no-change
// refreshes, sixteen generations that each bump eight seeded packages,
// and a restart (new Service over the same dir, TPM and platform +
// RestoreAll). Cycles repeat until the window is spent. Only the timed
// phases count as the window: deploying a tenant generates an RSA key,
// whose cost varies several-fold and is not what this workload is for.
func runRefreshCycle(ctx context.Context, o runOpts) (*runResult, error) {
	w, secs, err := repeatSetup(o.setups, func() (*world, error) {
		return newWorld(o.sizing.Real, o.seed, o.seams)
	})
	if err != nil {
		return nil, err
	}
	res := &runResult{workload: "refresh_cycle", clients: 1, setups: secs, phases: make(map[string]measurement)}
	c := &refreshCycler{w: w, o: o, res: res, rng: rand.New(rand.NewSource(o.seed*7919 + 17))}
	for name, spec := range w.specs {
		if spec.Category.SupportedByTSR() {
			c.bumpable = append(c.bumpable, name)
		}
	}
	// Cheapest to dearest to sanitize: one RSA signature per file, then
	// bytes. pickStrata draws from this order.
	sort.Slice(c.bumpable, func(a, b int) bool {
		sa, sb := w.specs[c.bumpable[a]], w.specs[c.bumpable[b]]
		if sa.FileCount != sb.FileCount {
			return sa.FileCount < sb.FileCount
		}
		if sa.TotalSize != sb.TotalSize {
			return sa.TotalSize < sb.TotalSize
		}
		return sa.Name < sb.Name
	})

	deadline := time.Now().Add(o.window)
	dir := ""
	for cycle := 0; cycle == 0 || cycle < o.atOps || time.Now().Before(deadline); cycle++ {
		if dir != "" {
			_ = os.RemoveAll(dir)
		}
		if dir, err = os.MkdirTemp(o.outDir, "refresh-cycle-*"); err != nil {
			return nil, err
		}
		// The first cycle, and those a counter comparison covers, run
		// to the end; later ones stop at the deadline, between phases.
		c.expired = func() bool { return cycle >= max(o.atOps, 1) && !time.Now().Before(deadline) }
		if err := c.cycle(ctx, dir); err != nil {
			_ = os.RemoveAll(dir)
			return nil, err
		}
		if cycle == 0 {
			res.catalog = w.actuals()
		}
		if cycle+1 == o.atOps {
			res.counters = w.counters()
		}
	}
	w.cleanup = append(w.cleanup, func() { _ = os.RemoveAll(dir) })

	// Disk is this workload's wire: what the data dir holds per catalog
	// package once a cycle's generations are published and the
	// superseded ones evicted.
	res.wireKB = float64(c.storeBytes) / 1e3 / float64(max(res.catalog.Packages, 1))
	res.primaryMs, res.totalMs = c.refreshMs, c.refreshMs+sum(c.restore)
	res.phases["refresh.cold_pkg_per_s"] = measurement{Value: median(c.cold), Unit: "1/s", Samples: len(c.cold)}
	res.phases["tsr.restore_all_ms"] = measurement{Value: median(c.restore), Unit: "ms", Samples: len(c.restore)}
	res.world = w
	if !o.keepWorld {
		w.close()
	}
	return res, nil
}

type refreshCycler struct {
	w        *world
	o        runOpts
	res      *runResult
	rng      *rand.Rand
	bumpable []string
	expired  func() bool

	cold, restore []float64 // packages/s, ms
	refreshMs     float64
	storeBytes    int64
}

// timed runs one measured phase: it alone advances busy time and CPU.
func (c *refreshCycler) timed(fn func() error) (time.Duration, error) {
	c.res.proc.start()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	c.res.proc.stop()
	c.res.busy += d
	c.res.attempted++
	return d, err
}

func (c *refreshCycler) refresh(ctx context.Context, v *verifier) (*tsr.RefreshStats, time.Duration, error) {
	var st *tsr.RefreshStats
	d, err := c.timed(func() (err error) { st, err = c.w.refresh(ctx); return err })
	if err != nil {
		return nil, d, err
	}
	c.refreshMs += ms(d)
	c.res.ops += int64(st.Sanitized)
	// After the timestamp: the published index must verify under the
	// tenant key and never move backwards.
	return st, d, c.w.recordGeneration(v)
}

func (c *refreshCycler) cycle(ctx context.Context, dir string) error {
	w, res := c.w, c.res
	fs, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		return err
	}
	if err := w.startOrigin(fs, true); err != nil {
		return err
	}
	// Each cycle's tenant has its own key and starts its sequence over.
	v := newVerifier(w.ring)
	defer func() {
		for _, viol := range v.chk.Violations() {
			res.fail("wrong data: %s", viol)
		}
		c.storeBytes = fs.Stats().Bytes
	}()

	st, d, err := c.refresh(ctx, v)
	if err != nil {
		return fmt.Errorf("cold refresh: %w", err)
	}
	c.cold = append(c.cold, float64(st.Sanitized)/d.Seconds())
	for i := 0; i < c.o.sizing.CycleWarm && !c.expired(); i++ {
		st, d, err := c.refresh(ctx, v)
		if err != nil {
			return fmt.Errorf("no-change refresh: %w", err)
		}
		if st.Sanitized != 0 {
			res.fail("no-change refresh sanitized %d packages", st.Sanitized)
		}
		res.nochange = append(res.nochange, ms(d))
	}
	for g := 0; g < c.o.sizing.CycleGens && !c.expired(); g++ {
		names := pickStrata(c.rng, c.bumpable, c.o.sizing.RefreshBump)
		if err := w.bump(names); err != nil {
			return err
		}
		st, d, err := c.refresh(ctx, v)
		if err != nil {
			return fmt.Errorf("incremental refresh: %w", err)
		}
		if st.Sanitized != len(names) {
			res.fail("generation bumped %d packages, refresh sanitized %d", len(names), st.Sanitized)
		}
		res.headline = append(res.headline, ms(d))
		w.checkBumped(v, names, res)
	}
	if c.expired() {
		return nil
	}
	// Restart: a new Service over the same data dir, TPM and platform
	// must come back warm on the same signed index.
	svc, err := w.newService(fs, true)
	if err != nil {
		return err
	}
	var restored []tsr.RestoredRepo
	d, err = c.timed(func() (err error) { restored, err = svc.RestoreAll(); return err })
	if err != nil {
		return fmt.Errorf("RestoreAll: %w", err)
	}
	c.restore = append(c.restore, ms(d))
	if len(restored) != 1 || !restored[0].Warm {
		res.fail("restart did not come back warm: %+v", restored)
		return nil
	}
	w.svc = svc
	if err := w.adoptTenant(restored[0].ID); err != nil {
		return err
	}
	if after, err := w.tenant.IndexETag(); err != nil || after != v.etag {
		res.fail("restart serves index %s, was %s (%v)", after, v.etag, err)
	}
	return nil
}

// checkBumped reads each bumped package back in-process and checks it
// is the new version and hashes to its signed entry.
func (w *world) checkBumped(v *verifier, names []string, res *runResult) {
	for _, name := range names {
		want := fmt.Sprintf("1.0-r%d", w.versions[name])
		entry, err := v.ix.Lookup(name)
		if err != nil || entry.Version != want {
			res.fail("%s: index serves %q, want %s (%v)", name, entry.Version, want, err)
			continue
		}
		body, err := w.tenant.FetchPackage(name)
		if err != nil {
			res.fail("%s: %v", name, err)
			continue
		}
		v.chk.PackageAccepted("operator", entry, body)
	}
}

// pickStrata draws one name from each of n equal slices of an ordered
// list. With the list ordered by cost, every draw costs about the same,
// so a generation's refresh time measures the program and not which
// packages the seed happened to bump.
func pickStrata(rng *rand.Rand, ordered []string, n int) []string {
	n = min(n, len(ordered))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(ordered)/n, (i+1)*len(ordered)/n
		out = append(out, ordered[lo+rng.Intn(hi-lo)])
	}
	sort.Strings(out)
	return out
}

// pick draws n distinct names.
func pick(rng *rand.Rand, from []string, n int) []string {
	n = min(n, len(from))
	out := make([]string, 0, n)
	for _, i := range rng.Perm(len(from))[:n] {
		out = append(out, from[i])
	}
	sort.Strings(out)
	return out
}

// --- fleet_update -------------------------------------------------------

// recordingSource is the pkgmgr.Source the fleet client installs
// through. It only remembers what the FailoverClient returned, so the
// independent checks run after the latency timestamps.
type recordingSource struct {
	next    *edge.FailoverClient
	indexes []*index.Signed
	bodies  map[string][]byte
}

func (s *recordingSource) FetchIndex() (*index.Signed, error) {
	signed, err := s.next.FetchIndex()
	if err == nil {
		s.indexes = append(s.indexes, signed)
	}
	return signed, err
}

func (s *recordingSource) FetchPackage(name string) ([]byte, error) {
	body, err := s.next.FetchPackage(name)
	if err == nil {
		s.bodies[name] = body
	}
	return body, err
}

// verify feeds what was recorded since the last call to the checker.
func (s *recordingSource) verify(v *verifier) {
	for _, signed := range s.indexes {
		v.chk.IndexAccepted("fleet-client", signed)
	}
	for name, body := range s.bodies {
		v.chk.PackageAcceptedAnyGen("fleet-client", name, body)
	}
	s.indexes, s.bodies = nil, make(map[string][]byte)
}

type fleetSetup struct {
	w       *world
	v       *verifier
	img     *osimage.Image
	monitor *attest.Verifier
	src     *recordingSource
	mgr     *pkgmgr.Manager
	bumpSet []string
	poller  *loadClient
}

func (s *fleetSetup) close() { s.w.close() }

func setupFleet(ctx context.Context, o runOpts) (_ *fleetSetup, err error) {
	w, v, err := serveWorld(ctx, o.sizing.Wide, o)
	if err != nil {
		return nil, err
	}
	defer w.closeOnError(&err)
	s := &fleetSetup{w: w, v: v}
	if err := w.startEdge(ctx, edge.DefaultCacheBudget); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed*7919 + 29))
	s.bumpSet = append(append([]string(nil), w.probes[:min(o.sizing.FleetProbes, len(w.probes))]...),
		pick(rng, w.fillers, o.sizing.FleetFiller)...)

	if s.img, err = osimage.New(keys.Shared.MustGet("bench-os-ak"), w.initCfg); err != nil {
		return nil, err
	}
	s.monitor = attest.NewVerifier(s.img.TPM.AttestationKey(), w.ring)
	if err := s.img.IMA.MeasureTree("/etc"); err != nil {
		return nil, err
	}
	s.monitor.WhitelistImage(s.img)

	endpoint := func(name string, srv *loopServer) edge.Endpoint {
		c := &tsr.Client{BaseURL: srv.url, RepoID: w.tenant.ID, HTTPClient: w.newHTTPClient(), Context: ctx}
		return edge.Endpoint{Name: name, Fetcher: w.seams.client("client.failover_"+name, c)}
	}
	s.src = &recordingSource{bodies: make(map[string][]byte), next: &edge.FailoverClient{
		TrustRing: w.ring,
		Endpoints: []edge.Endpoint{endpoint("edge", w.edgeSrv), endpoint("origin", w.originSrv)},
		PkgCache:  store.NewMemBudget(clientCacheBudget),
	}}
	s.mgr = pkgmgr.New(s.img, s.src, w.ring, w.ring)
	if err := s.mgr.Refresh(); err != nil {
		return nil, err
	}
	for _, name := range s.bumpSet {
		if _, err := s.mgr.Install(name); err != nil {
			return nil, fmt.Errorf("bench: install %s: %w", name, err)
		}
	}
	s.src.verify(v)
	s.poller = newLoadClient(w, v, 1, nil, nil, w.edgeSrv)
	return s, nil
}

// clientCacheBudget bounds the fleet client's verified package cache
// (the diff bases of its next upgrade), as a real client's disk would.
const clientCacheBudget = 32 << 20

// pollThink is client 1's think time between index polls.
const pollThink = 10 * time.Millisecond

// poll is client 1 of fleet_update: it revalidates the edge's index
// with the ETag it last verified, and on a change fetches, verifies and
// adopts the new generation.
func (s *fleetSetup) poll(ctx context.Context, stop <-chan struct{}, res *pollResult) {
	c := s.poller
	etag := s.v.etag
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-time.After(pollThink):
		}
		res.attempted++
		r, err := c.get(ctx, c.bases[0], "/index", "If-None-Match", etag, "Accept-Encoding", "gzip")
		if err != nil {
			res.errs = append(res.errs, "poll: "+err.Error())
			continue
		}
		switch r.status {
		case http.StatusNotModified:
			if err := expect304(r, etag); err != nil {
				res.errs = append(res.errs, "poll: "+err.Error())
				continue
			}
			res.lat304 = append(res.lat304, r.ms)
		case http.StatusOK:
			raw, err := c.decoded(r, true)
			if err == nil {
				// The edge may already serve a generation the reference
				// has not recorded yet, so check the response on its own
				// terms: signed form matches its ETag, signature valid,
				// sequence monotone for this client.
				err = checkFreshIndex(s.v, c.actor, r, raw)
			}
			if err != nil {
				res.errs = append(res.errs, "poll: "+err.Error())
				continue
			}
			etag = r.header.Get("ETag")
			res.changes++
		default:
			res.errs = append(res.errs, fmt.Sprintf("poll: HTTP %d", r.status))
		}
	}
}

type pollResult struct {
	attempted int64
	changes   int64
	lat304    []float64
	errs      []string
}

// runFleetUpdate: the full chain over loopback. Each generation:
// upstream publishes version bumps of the probes and a few filler
// packages, mirrors sync, the origin refreshes, the edge delta-syncs,
// and the client refreshes and upgrades every changed package through
// a FailoverClient (edge first, origin second) onto an IMA-measured
// image. Beside it, client 1 polls the edge index every 10 ms.
func runFleetUpdate(ctx context.Context, o runOpts) (*runResult, error) {
	s, secs, err := repeatSetup(o.setups, func() (*fleetSetup, error) { return setupFleet(ctx, o) })
	if err != nil {
		return nil, err
	}
	w := s.w
	res := &runResult{workload: "fleet_update", clients: o.clients, setups: secs, catalog: w.actuals(), phases: make(map[string]measurement)}

	// A traced run drives one client, so spans nest by time alone: the
	// poller stays home.
	stop := make(chan struct{})
	var polled pollResult
	var wg sync.WaitGroup
	if o.clients > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.poll(ctx, stop, &polled)
		}()
	}

	var t fleetTimes
	var genErr error
	wire0 := w.edgeUpstream.WireStats().TotalBytes()
	deadline := time.Now().Add(o.window)
	res.proc.start()
	start := time.Now()
	for gen := 0; genErr == nil && (time.Now().Before(deadline) || gen < o.atOps) && ctx.Err() == nil; gen++ {
		genErr = s.generation(ctx, gen, res, &t)
		if gen+1 == o.atOps {
			res.counters = w.counters()
		}
	}
	res.busy = time.Since(start)
	res.proc.stop()
	close(stop)
	wg.Wait()
	if genErr != nil {
		w.close()
		return nil, genErr
	}

	res.totalMs = ms(res.busy)
	res.wireKB = float64(w.edgeUpstream.WireStats().TotalBytes()-wire0) / 1e3 / float64(max(res.ops, 1))
	res.nochange = polled.lat304
	res.attempted += polled.attempted
	for _, e := range polled.errs {
		res.fail("%s", e)
	}
	if want := int64(len(res.headline)); polled.changes > want {
		res.fail("poller saw %d index changes in %d generations", polled.changes, want)
	}
	// The upgrades must have left the image clean for the integrity
	// monitor: every measured file signed by the tenant key or part of
	// the golden image.
	verdict, err := s.monitor.Attest(s.img)
	switch {
	case err != nil:
		res.fail("attestation: %v", err)
	case !verdict.OK:
		res.fail("image not IMA-clean after upgrades: %d violations, first %+v", len(verdict.Violations()), verdict.Violations()[0])
	}
	for _, viol := range s.v.chk.Violations() {
		res.fail("wrong data: %s", viol)
	}
	res.phases = w.servingPhases()
	res.phases["fleet.incr_refresh_ms"] = measurement{Value: median(t.incr), Unit: "ms", Samples: len(t.incr)}
	res.phases["fleet.edge_sync_ms"] = measurement{Value: median(t.syncs), Unit: "ms", Samples: len(t.syncs)}
	res.phases["fleet.upgrade_pkg_p50_ms"] = measurement{Value: median(t.upgrades), Unit: "ms", Samples: len(t.upgrades)}
	res.world = w
	if !o.keepWorld {
		w.close()
	}
	return res, nil
}

// fleetTimes are the phases of a generation, in ms.
type fleetTimes struct{ incr, syncs, upgrades []float64 }

// generation publishes one upstream release and carries it all the way
// onto the client's image.
func (s *fleetSetup) generation(ctx context.Context, gen int, res *runResult, t *fleetTimes) error {
	w := s.w
	t0 := time.Now()
	if err := w.bump(s.bumpSet); err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := w.refresh(ctx); err != nil {
		return err
	}
	t2 := time.Now()
	if err := w.replica.SyncCtx(ctx); err != nil {
		return err
	}
	t3 := time.Now()
	err := s.mgr.Refresh()
	t4 := time.Now()
	res.attempted++
	if err != nil {
		res.fail("generation %d: client refresh: %v", gen, err)
		return nil
	}
	t.incr = append(t.incr, ms(t2.Sub(t1)))
	t.syncs = append(t.syncs, ms(t3.Sub(t2)))
	res.headline = append(res.headline, ms(t4.Sub(t0)))
	res.primaryMs += ms(t4.Sub(t1))

	// After the timestamp: the client must now hold exactly the
	// generation the origin just published.
	if err := w.recordGeneration(s.v); err != nil {
		return err
	}
	if got := s.mgr.Index().Sequence; got != s.v.ix.Sequence {
		res.fail("generation %d: client holds sequence %d, origin published %d", gen, got, s.v.ix.Sequence)
	}
	for _, name := range s.bumpSet {
		tu := time.Now()
		_, err := s.mgr.Upgrade(name)
		d := time.Since(tu)
		res.attempted++
		want := fmt.Sprintf("1.0-r%d", w.versions[name])
		if got, _ := s.mgr.InstalledVersion(name); err != nil || got != want {
			res.fail("generation %d: upgrade %s: installed %q, want %s (%v)", gen, name, got, want, err)
			continue
		}
		t.upgrades = append(t.upgrades, ms(d))
		res.primaryMs += ms(d)
		res.ops++
	}
	s.src.verify(s.v)
	return nil
}

// checkFreshIndex verifies a full index response that may be a
// generation newer than the reference has recorded.
func checkFreshIndex(v *verifier, actor string, r *response, raw []byte) error {
	signed, err := signedFromResponse(r, raw)
	if err != nil {
		return err
	}
	if v.chk.IndexAccepted(actor, signed) == nil {
		return errors.New("index rejected by the checker")
	}
	return nil
}
