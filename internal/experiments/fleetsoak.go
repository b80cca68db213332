package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsr/internal/apk"
	"tsr/internal/chaos"
	"tsr/internal/edge"
	"tsr/internal/enclave"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/mirror"
	"tsr/internal/netsim"
	"tsr/internal/obs"
	"tsr/internal/sched"
	"tsr/internal/store"
	"tsr/internal/trace"
	"tsr/internal/tsr"
)

// Fleet-soak shape. Slot 0 is the protected front edge: it stays
// honest and alive for the whole run so the HTTP/admission invariants
// (ETag == sha256(body), shed contract, in-flight bound) are checkable
// on every response it serves; the chaos schedule only ever targets
// slots 1..soakEdges-1.
const (
	soakTicks       = 16
	soakEdges       = 4
	soakClients     = 6
	soakBaseReads   = 4 // package reads per client per tick at diurnal peak
	soakMaxInflight = 8
	soakCrowdRounds = 3
	// The origin's global refresh scheduler runs bounded during the
	// soak, so the sched-bound invariant is checkable: the primary
	// tenant's refreshes and the churn tenant's journaled ingest share
	// one slot pool.
	soakRefreshWorkers = 4
	soakSchedMaxActive = 2
	// Packages the churn tenant bulk-ingests at TenantDeploy.
	soakChurnBatch = 4
	// flashServiceFloor is a synthetic per-request service time injected
	// under the admission middleware for the flash crowds. Real handler
	// time at experiment scale is microseconds, which no finite offered
	// load could saturate reproducibly; the floor models a saturated
	// hardware service time so the shed/served split is deterministic.
	flashServiceFloor = 2 * time.Millisecond
)

// errOriginDown models the crashed origin process: connections to it
// fail until the warm restart brings it back.
var errOriginDown = errors.New("fleet-soak: origin is down")

// originGate is the swappable origin endpoint: OriginCrash stores nil,
// OriginRestart stores the restored tenant. It satisfies the same read
// surface as *tsr.Repo, so the replicas and clients sit on top
// unchanged. It counts the chunk-manifest and range requests that reach
// the origin.
type originGate struct {
	tenant    atomic.Pointer[tsr.Repo]
	manifests atomic.Int64
	ranges    atomic.Int64
}

func (g *originGate) FetchIndexTaggedCtx(ctx context.Context) (*index.Signed, string, error) {
	t := g.tenant.Load()
	if t == nil {
		return nil, "", errOriginDown
	}
	return t.FetchIndexTaggedCtx(ctx)
}

func (g *originGate) FetchIndexDeltaCtx(ctx context.Context, since string) (*index.Delta, error) {
	t := g.tenant.Load()
	if t == nil {
		return nil, errOriginDown
	}
	return t.FetchIndexDeltaCtx(ctx, since)
}

func (g *originGate) FetchPackageCtx(ctx context.Context, name string) ([]byte, error) {
	t := g.tenant.Load()
	if t == nil {
		return nil, errOriginDown
	}
	return t.FetchPackageCtx(ctx, name)
}

// The differential-sync surface forwards too, so chunked package sync
// stays in the replicas' pull path throughout the soak.
func (g *originGate) FetchChunkManifestCtx(ctx context.Context, name string) (*store.ChunkManifest, error) {
	g.manifests.Add(1)
	t := g.tenant.Load()
	if t == nil {
		return nil, errOriginDown
	}
	return t.FetchChunkManifestCtx(ctx, name)
}

func (g *originGate) FetchPackageRangeCtx(ctx context.Context, name string, off, length int64) ([]byte, error) {
	g.ranges.Add(1)
	t := g.tenant.Load()
	if t == nil {
		return nil, errOriginDown
	}
	return t.FetchPackageRangeCtx(ctx, name, off, length)
}

// edgeSlot is one edge position in the fleet. The slot — not the
// replica — is the client-facing Fetcher: EdgeKill swaps the replica
// pointer to nil and EdgeRestart/EdgeRollback swap in a fresh Replica
// over the slot's surviving store, while FailoverClient.rank keeps
// reading a stable Endpoints slice. The cache is the slot's "data
// dir": it survives kills, and journal0 snapshots its first persisted
// index journal so EdgeRollback can play old state back over it.
type edgeSlot struct {
	name      string
	continent netsim.Continent
	cache     *store.Mem
	journal0  []byte
	rep       atomic.Pointer[edge.Replica]
}

func (s *edgeSlot) FetchIndexTaggedCtx(ctx context.Context) (*index.Signed, string, error) {
	rep := s.rep.Load()
	if rep == nil {
		return nil, "", fmt.Errorf("%w: %s killed", edge.ErrOffline, s.name)
	}
	return rep.FetchIndexTaggedCtx(ctx)
}

func (s *edgeSlot) FetchPackageCtx(ctx context.Context, name string) ([]byte, error) {
	rep := s.rep.Load()
	if rep == nil {
		return nil, fmt.Errorf("%w: %s killed", edge.ErrOffline, s.name)
	}
	return rep.FetchPackageCtx(ctx, name)
}

func (s *edgeSlot) FetchChunkManifestCtx(ctx context.Context, name string) (*store.ChunkManifest, error) {
	rep := s.rep.Load()
	if rep == nil {
		return nil, fmt.Errorf("%w: %s killed", edge.ErrOffline, s.name)
	}
	return rep.FetchChunkManifestCtx(ctx, name)
}

func (s *edgeSlot) FetchPackageRangeCtx(ctx context.Context, name string, off, length int64) ([]byte, error) {
	rep := s.rep.Load()
	if rep == nil {
		return nil, fmt.Errorf("%w: %s killed", edge.ErrOffline, s.name)
	}
	return rep.FetchPackageRangeCtx(ctx, name, off, length)
}

// FleetSoakResult is the measured outcome of one soak run; it is also
// the BENCH_fleet_soak.json document.
type FleetSoakResult struct {
	Scale       float64 `json:"scale"`
	Seed        int64   `json:"seed"`
	Ticks       int     `json:"ticks"`
	Edges       int     `json:"edges"`
	Clients     int     `json:"clients"`
	MaxInflight int64   `json:"max_inflight"`

	// Events tallies the executed schedule by kind;
	// ComposedFailures counts the fault events among them (the
	// acceptance floor is >= 5).
	Events           map[string]int `json:"events"`
	ComposedFailures int            `json:"composed_failures"`
	Schedule         []string       `json:"schedule"`

	// Client-side reads through the failover clients. FailedReads is
	// availability (endpoints down mid-churn), never a violation.
	IndexReads   int64 `json:"index_reads"`
	PackageReads int64 `json:"package_reads"`
	FailedReads  int64 `json:"failed_reads"`

	// Refresh control plane: generations published during the soak.
	RefreshesOK      int `json:"refreshes_ok"`
	RefreshesFailed  int `json:"refreshes_failed"`
	RefreshesSkipped int `json:"refreshes_skipped"` // origin was down

	// Wall-clock read latency through the soak (internal/obs
	// histograms; quantiles are bucket upper bounds, so nonzero
	// whenever any read completed).
	IndexLatency   obs.HistogramSnapshot `json:"index_latency"`
	PackageLatency obs.HistogramSnapshot `json:"package_latency"`

	// Flash crowds through the obs-wrapped front edge handler.
	FrontHTTP    obs.Snapshot `json:"front_http"`
	CrowdOffered int64        `json:"crowd_offered"`
	CrowdServed  int64        `json:"crowd_served"`
	CrowdShed    int64        `json:"crowd_shed"`
	ShedRate     float64      `json:"shed_rate"`

	// Trace observability. FrontTraces counts the front edge's kept
	// span trees (every flash-crowd 200 also had its X-Tsr-Trace-Id
	// checked by InvTraceHeader); RefreshStages is the origin's
	// per-stage refresh latency breakdown aggregated over every
	// generation published during the soak.
	FrontTraces   trace.StoreStats          `json:"front_traces"`
	RefreshStages map[string]trace.StageAgg `json:"refresh_stages,omitempty"`

	// Coalescing across live replicas at the end of the run (killed
	// replicas take their counters with them).
	CoalescedPulls int64 `json:"coalesced_pulls"`
	CoalescedSyncs int64 `json:"coalesced_syncs"`

	// Wire efficiency under churn: chunked differential pulls across
	// live replicas at the end of the run (the soak-wire-probe is
	// version-bumped with every generation), manifest/range requests
	// that reached the origin, streamed (hash-as-you-copy) serves, and
	// verified 206 Range reads through the front handler.
	// QuiesceDiffPulls are the chunked pulls quiesce forces, one per
	// replica if the path works, counted apart so that DiffPulls shows
	// what the run made under faults.
	DiffPulls        int64 `json:"diff_pulls"`
	DiffFallbacks    int64 `json:"diff_fallbacks"`
	DiffBytesReused  int64 `json:"diff_bytes_reused"`
	DiffBytesFetched int64 `json:"diff_bytes_fetched"`
	QuiesceDiffPulls int64 `json:"quiesce_diff_pulls"`
	OriginManifests  int64 `json:"origin_manifests"`
	OriginRanges     int64 `json:"origin_ranges"`
	StreamedServes   int64 `json:"streamed_serves"`
	RangeReads       int64 `json:"range_reads_206"`

	// Client defense counters summed over the fleet: byzantine edges
	// were detected and routed around this many times.
	Failovers         int64 `json:"failovers"`
	RejectedStale     int64 `json:"rejected_stale"`
	RejectedBytes     int64 `json:"rejected_bytes"`
	RejectedSignature int64 `json:"rejected_signature"`

	// OriginWarmRestart reports that the mid-soak origin restart came
	// back warm from the -data-dir store (no re-sanitization), in
	// WarmRestartMs.
	OriginWarmRestart bool    `json:"origin_warm_restart"`
	WarmRestartMs     float64 `json:"warm_restart_ms"`

	// Tenant churn: an extra tenant deployed on the shared origin
	// mid-soak, bulk-ingested a batch through the crash-safe journal,
	// and was undeployed later — all through the same bounded
	// scheduler as the primary tenant's refreshes.
	ChurnDeploys  int `json:"churn_deploys"`
	ChurnIngested int `json:"churn_ingested"`
	ChurnKills    int `json:"churn_kills"`

	// Sched is the origin scheduler at quiesce (current life); its
	// peaks are asserted against the configured bounds by the
	// sched-bound invariant.
	Sched sched.Snapshot `json:"sched"`

	// Invariants (internal/chaos). Violations must be empty.
	LaggingAtQuiesce    int               `json:"lagging_at_quiesce"`
	InvariantChecks     int64             `json:"invariant_checks"`
	InvariantViolations int               `json:"invariant_violations"`
	Violations          []chaos.Violation `json:"violations,omitempty"`
}

// soakPackage builds the deterministic package a Refresh event
// publishes; the origin restart republishes the same list byte-for-byte
// so regenerated entries hash identically to what clients already hold.
func soakPackage(name string) *apk.Package {
	const version = "1.0-r0"
	return &apk.Package{
		Name: name, Version: version,
		Files: []apk.File{{Path: "/usr/bin/" + name, Mode: 0o755, Content: []byte(name + version)}},
	}
}

// soakWireName is the chunking probe: a multi-chunk package whose
// content is version-bumped with every published generation, so the
// replicas' chunked differential pull path stays exercised — under
// the same invariant checker — all soak long. Quiesce bumps it once
// more after every replica holds it, so each replica makes at least
// one chunked pull however the run's timing fell (chunked-pull).
const soakWireName = "soak-wire-probe"

// soakWireProbe builds the probe: eight 16 KiB files of incompressible
// (seeded-random) content, with only the last-sorted file's content
// tied to the version — so a version bump changes a suffix of the
// deterministic apk stream and chunking can reuse the shared prefix.
func soakWireProbe(version string) *apk.Package {
	const nFiles, fileSize = 8, 16 << 10
	p := &apk.Package{Name: soakWireName, Version: version}
	for i := 0; i < nFiles; i++ {
		seed := int64(i + 1)
		path := fmt.Sprintf("/usr/share/%s/%03d.bin", soakWireName, i)
		if i == nFiles-1 {
			path = "/usr/share/" + soakWireName + "/zz-last.bin"
			for _, c := range version {
				seed = seed*131 + int64(c)
			}
		}
		content := make([]byte, fileSize)
		rand.New(rand.NewSource(seed)).Read(content)
		p.Files = append(p.Files, apk.File{Path: path, Mode: 0o644, Content: content})
	}
	return p
}

// FleetSoakRun drives the composed-failure soak: soakClients failover
// clients read through a fleet of soakEdges replicas plus the origin
// while the seeded chaos schedule kills, rolls back, and corrupts edges
// under them, crashes and warm-restarts the origin, takes mirrors out,
// and publishes new generations — with every client-visible read fed to
// the continuous invariant checker.
func FleetSoakRun(cfg Config) (*FleetSoakResult, error) {
	cfg = cfg.withDefaults()
	cfg.Scale = minFloat(cfg.Scale, 0.006)

	dir, err := os.MkdirTemp("", "tsr-soak-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Host hardware that survives the origin crash: the platform sealing
	// root and the TPM counters. The store handle does not — each life
	// reopens and re-scrubs the data dir.
	platform, err := enclave.NewPlatform(keys.Shared.MustGet("exp-quoting"))
	if err != nil {
		return nil, err
	}
	hostTPM := newHostTPM()
	// newLife boots one origin process over the data dir, with no tenant
	// deployed yet: the first life deploys the policy, later lives
	// restore it with RestoreAll.
	newLife := func() (*World, error) {
		st, err := store.OpenFS(dir, store.FSOptions{})
		if err != nil {
			return nil, err
		}
		return newWorld(cfg, nil, false, tsr.Config{
			Store: st, TPM: hostTPM, Platform: platform, AutoPersist: true,
			RefreshWorkers: soakRefreshWorkers, SchedMaxActive: soakSchedMaxActive,
		})
	}

	// --- first life --------------------------------------------------
	w, err := newLife()
	if err != nil {
		return nil, err
	}
	repoID, _, _, err := w.Service.DeployPolicy(w.PolicyRaw)
	if err != nil {
		return nil, err
	}
	tenant, err := w.Service.Repo(repoID)
	if err != nil {
		return nil, err
	}
	// The chunking probe's first generation goes out with the initial
	// refresh; every Refresh event bumps it. The full version history
	// is kept because the origin restart must replay every publish —
	// the upstream index sequence is monotonic, and a regenerated
	// upstream with fewer publishes would (correctly) trip the tenant's
	// TPM anti-rollback check.
	probeVersions := []string{"0.0-r0"}
	publishProbe := func(w *World, version string) error {
		p := soakWireProbe(version)
		if err := apk.Sign(p, w.Distro); err != nil {
			return err
		}
		return w.Repo.Publish(p)
	}
	if err := publishProbe(w, probeVersions[0]); err != nil {
		return nil, err
	}
	for _, m := range w.Mirrors {
		m.Sync(w.Repo)
	}
	if _, err := tenant.Refresh(); err != nil {
		return nil, err
	}
	w.Tenant = tenant

	trust := keys.NewRing(tenant.PublicKey())
	checker := chaos.NewChecker(trust)
	gate := &originGate{}
	gate.tenant.Store(tenant)

	// Control-plane state. ctlMu serializes the control goroutines
	// (refreshes, origin restart, mirror toggles) against each other;
	// the data plane reads only through the gate and slot atomics.
	var ctlMu sync.Mutex
	cur := w
	var published []string
	// ctlErrs has its own mutex: several ctlFail callers (doRefresh, the
	// churn deploy) already hold ctlMu when they fail, so reporting the
	// error must not re-acquire it.
	var ctlErrMu sync.Mutex
	var ctlErrs []error
	res := &FleetSoakResult{
		Scale: cfg.Scale, Seed: cfg.Seed,
		Ticks: soakTicks, Edges: soakEdges, Clients: soakClients,
		MaxInflight: soakMaxInflight,
	}
	ctlFail := func(err error) {
		ctlErrMu.Lock()
		ctlErrs = append(ctlErrs, err)
		ctlErrMu.Unlock()
	}
	firstCtlErr := func() error {
		ctlErrMu.Lock()
		defer ctlErrMu.Unlock()
		if len(ctlErrs) > 0 {
			return ctlErrs[0]
		}
		return nil
	}

	// --- edge fleet ---------------------------------------------------
	newReplica := func(s *edgeSlot) *edge.Replica {
		return &edge.Replica{
			RepoID:       repoID,
			Origin:       gate,
			Continent:    s.continent,
			TrustRing:    trust,
			Cache:        s.cache,
			PersistIndex: true,
		}
	}
	slots := make([]*edgeSlot, soakEdges)
	for i := range slots {
		slots[i] = &edgeSlot{
			name:      fmt.Sprintf("edge-%d", i),
			continent: edgeContinents[i%len(edgeContinents)],
			cache:     store.NewMemBudget(1 << 30),
		}
		rep := newReplica(slots[i])
		if err := rep.SyncCtx(context.Background()); err != nil {
			return nil, err
		}
		slots[i].rep.Store(rep)
		if j, err := slots[i].cache.Get(edge.StateKey); err == nil {
			slots[i].journal0 = append([]byte(nil), j...)
		}
	}

	// --- clients ------------------------------------------------------
	var endpoints []edge.Endpoint
	for _, s := range slots {
		endpoints = append(endpoints, edge.Endpoint{Name: s.name, Continent: s.continent, Fetcher: s})
	}
	endpoints = append(endpoints, edge.Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: gate})
	link := netsim.DefaultLinkModel(nil)
	type soakClient struct {
		name string
		fc   *edge.FailoverClient
		rng  *netsim.RNG
	}
	clients := make([]*soakClient, soakClients)
	for i := range clients {
		clients[i] = &soakClient{
			name: fmt.Sprintf("client-%d", i),
			fc: &edge.FailoverClient{
				Local:     edgeContinents[i%len(edgeContinents)],
				Link:      link,
				Clock:     netsim.NewVirtualClock(time.Time{}),
				TrustRing: trust,
				Endpoints: endpoints,
			},
			rng: netsim.NewRNG(cfg.Seed + 100 + int64(i)),
		}
	}

	// --- front HTTP handler (admission + ETag invariants) -------------
	// The front replica never changes, so binding it into the handler
	// once is safe; the service floor models saturated hardware.
	inner := edge.Handler(map[string]*edge.Replica{repoID: slots[0].rep.Load()}, "soak-front")
	slowed := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(flashServiceFloor)
		inner.ServeHTTP(rw, r)
	})
	// Every flash-crowd response gets a span tree (HeadEvery 1): the
	// TraceHeader invariant quotes the echoed ID against this store.
	frontTracer := trace.NewTracer(trace.Config{Tier: "edge", HeadEvery: 1, Capacity: 4096})
	originTracer := trace.NewTracer(trace.Config{Tier: "origin", HeadEvery: 1, Capacity: 4096})
	o := obs.New(obs.Options{MaxInflight: soakMaxInflight, Tracer: frontTracer})
	handler := o.Wrap(slowed)

	// --- instruments --------------------------------------------------
	var idxHist, pkgHist obs.Histogram
	var indexReads, packageReads, failedReads atomic.Int64
	var crowdOffered, crowdServed, rangeReads atomic.Int64

	// --- event handlers ----------------------------------------------
	doRefresh := func(tick int) {
		ctlMu.Lock()
		defer ctlMu.Unlock()
		if gate.tenant.Load() == nil {
			res.RefreshesSkipped++
			return
		}
		name := fmt.Sprintf("soak-gen-%03d", tick)
		published = append(published, name)
		// Bump the chunking probe into this generation: replicas that
		// cached the previous version pull the new one differentially.
		version := fmt.Sprintf("%d.0-r0", tick+1)
		if err := publishProbe(cur, version); err != nil {
			ctlFail(fmt.Errorf("fleet-soak: probe publish: %w", err))
			return
		}
		probeVersions = append(probeVersions, version)
		if err := publishGeneration(trace.NewContext(context.Background(), originTracer), cur, name); err != nil {
			// A refresh failing during a mirror outage is availability;
			// the previous snapshot keeps serving.
			res.RefreshesFailed++
			return
		}
		res.RefreshesOK++
	}

	// Tenant churn. The churn tenant shares the origin's scheduler,
	// journal, and store with the primary tenant, but never enters the
	// client data plane: what the soak asserts is that its deploy,
	// journaled bulk-ingest, and undeploy bend no invariant the primary
	// is checked against. All churn state is guarded by ctlMu; churnID
	// survives an origin crash because RestoreAll restores the churn
	// tenant from the same data dir. deployChurnLocked requires ctlMu.
	var churnID string
	var churnPending bool // deploy arrived while the origin was down
	var churnTick int
	deployChurnLocked := func(tick int) {
		id, _, _, err := cur.Service.DeployPolicy(cur.PolicyRaw)
		if err != nil {
			ctlFail(fmt.Errorf("fleet-soak: churn deploy: %w", err))
			return
		}
		churn, err := cur.Service.Repo(id)
		if err != nil {
			ctlFail(err)
			return
		}
		raws := make([][]byte, 0, soakChurnBatch)
		for i := 0; i < soakChurnBatch; i++ {
			p := soakPackage(fmt.Sprintf("churn-tool-%02d-%d", tick, i))
			if err := apk.Sign(p, cur.Distro); err != nil {
				ctlFail(err)
				return
			}
			raw, err := apk.Encode(p)
			if err != nil {
				ctlFail(err)
				return
			}
			raws = append(raws, raw)
		}
		st, err := churn.RegisterPackages(trace.NewContext(context.Background(), originTracer), raws)
		if err != nil {
			ctlFail(fmt.Errorf("fleet-soak: churn ingest: %w", err))
			return
		}
		churnID = id
		res.ChurnDeploys++
		res.ChurnIngested += st.Registered
	}

	doOriginRestart := func() error {
		ctlMu.Lock()
		defer ctlMu.Unlock()
		if gate.tenant.Load() != nil {
			return nil
		}
		w2, err := newLife()
		if err != nil {
			return err
		}
		//lint:allow detrand timing block: the warm-restart-under-load duration is a headline soak metric, measured in real time
		t0 := time.Now()
		restored, err := w2.Service.RestoreAll()
		if err != nil {
			return err
		}
		restoreDur := time.Since(t0)
		// The primary tenant must come back; the churn tenant (when it
		// was deployed at crash time) rides along in the same restore.
		var prim *tsr.RestoredRepo
		for i := range restored {
			if restored[i].ID == repoID {
				prim = &restored[i]
			}
		}
		if prim == nil {
			return fmt.Errorf("fleet-soak: RestoreAll restored %d repositories, primary %s missing", len(restored), repoID)
		}
		tenant2, err := w2.Service.Repo(repoID)
		if err != nil {
			return err
		}
		w2.Tenant = tenant2
		// Republish the soak generations into the regenerated upstream
		// before the next refresh, so no generation ever retracts
		// packages clients already verified.
		for _, name := range published {
			p := soakPackage(name)
			if err := apk.Sign(p, w2.Distro); err != nil {
				return err
			}
			if err := w2.Repo.Publish(p); err != nil {
				return err
			}
		}
		for _, v := range probeVersions {
			if err := publishProbe(w2, v); err != nil {
				return err
			}
		}
		for _, m := range w2.Mirrors {
			m.Sync(w2.Repo)
		}
		if _, err := tenant2.Refresh(); err != nil {
			return err
		}
		cur = w2
		res.OriginWarmRestart = prim.Warm
		res.WarmRestartMs = float64(restoreDur) / float64(time.Millisecond)
		gate.tenant.Store(tenant2)
		if churnPending {
			// A churn deploy queued while the origin was down: the
			// operator's retry lands right after the warm restart, so the
			// journaled bulk-ingest overlaps catch-up refresh traffic.
			churnPending = false
			deployChurnLocked(churnTick)
		}
		return nil
	}

	restartEdge := func(s *edgeSlot) {
		if s.rep.Load() != nil {
			return
		}
		rep := newReplica(s)
		if err := rep.LoadState(); err != nil && !errors.Is(err, edge.ErrNoState) {
			ctlFail(fmt.Errorf("fleet-soak: %s restart: %w", s.name, err))
			return
		}
		// Catch-up sync is best-effort: the origin may be down, and the
		// replica serves its persisted generation until it isn't.
		_ = rep.SyncCtx(context.Background())
		s.rep.Store(rep)
	}

	rollbackEdge := func(s *edgeSlot) {
		s.rep.Store(nil)
		if s.journal0 == nil {
			restartEdge(s)
			return
		}
		if err := s.cache.Put(edge.StateKey, s.journal0); err != nil {
			ctlFail(fmt.Errorf("fleet-soak: %s rollback: %w", s.name, err))
			return
		}
		rep := newReplica(s)
		if err := rep.LoadState(); err != nil {
			ctlFail(fmt.Errorf("fleet-soak: %s rollback load: %w", s.name, err))
			return
		}
		// Deliberately no sync: the replica comes back serving the
		// rolled-back generation, and the clients' freshness floor has
		// to reject it (RejectedStale) until the next sync round.
		s.rep.Store(rep)
	}

	flashCrowd := func() {
		signed, _, err := slots[0].FetchIndexTaggedCtx(context.Background())
		if err != nil {
			ctlFail(fmt.Errorf("fleet-soak: flash crowd probe: %w", err))
			return
		}
		probe, err := firstPackageName(signed)
		if err != nil {
			ctlFail(err)
			return
		}
		path := "/repos/" + repoID + "/packages/" + probe
		inParallel(2*soakMaxInflight, func() {
			for r := 0; r < soakCrowdRounds; r++ {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				crowdOffered.Add(1)
				if rec.Code == http.StatusOK {
					crowdServed.Add(1)
				}
				checker.HTTPResponse("soak-front", rec.Code,
					rec.Header().Get("ETag"), rec.Header().Get("Retry-After"), rec.Body.Bytes())
				checker.TraceHeader("soak-front", rec.Code, rec.Header().Get(trace.HeaderTraceID))
			}
		})
		// One Range read per crowd, pinned to a fresh full representation
		// with If-Range: the 206 must be a verified slice of the full
		// body under the FULL body's strong ETag (range-consistent). A
		// republish between the two requests downgrades to a full 200,
		// which the checker treats as availability.
		full := httptest.NewRecorder()
		handler.ServeHTTP(full, httptest.NewRequest(http.MethodGet, path, nil))
		if full.Code == http.StatusOK {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.Header.Set("Range", "bytes=0-1023")
			req.Header.Set("If-Range", full.Header().Get("ETag"))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code == http.StatusPartialContent {
				rangeReads.Add(1)
			}
			checker.RangeResponse("soak-front", rec.Code, rec.Header().Get("ETag"),
				rec.Header().Get("Content-Range"), rec.Body.Bytes(), full.Body.Bytes())
		}
		checker.AdmissionSnapshot("soak-front", o.Snapshot())
	}

	// Remaining tenant-churn wiring (deployChurnLocked and its state are
	// declared above doOriginRestart, which replays a queued deploy).
	doTenantDeploy := func(tick int) {
		ctlMu.Lock()
		defer ctlMu.Unlock()
		if churnID != "" || churnPending {
			return // a previous churn tenant is still alive or queued
		}
		if gate.tenant.Load() == nil {
			// The deploy raced the origin crash (control actions queue on
			// ctlMu behind in-flight refreshes, so the crash may land
			// first in wall time even when the schedule orders it later).
			// Model the operator retry: the deploy fires at the warm
			// restart instead of being dropped.
			churnPending, churnTick = true, tick
			return
		}
		deployChurnLocked(tick)
	}
	doTenantKill := func() {
		ctlMu.Lock()
		defer ctlMu.Unlock()
		if churnID == "" || gate.tenant.Load() == nil {
			return // nothing deployed (or queued), or the origin is down
		}
		if err := cur.Service.Undeploy(churnID); err != nil {
			ctlFail(fmt.Errorf("fleet-soak: churn undeploy: %w", err))
			return
		}
		churnID = ""
		res.ChurnKills++
	}

	setMirror := func(i int, b mirror.Behavior) {
		ctlMu.Lock()
		defer ctlMu.Unlock()
		if i < len(cur.Mirrors) {
			cur.Mirrors[i].SetBehavior(b)
		}
	}

	// Long-running control actions (refresh, origin restart) run
	// concurrently with client traffic — that is the point of the soak —
	// and are joined before quiesce.
	var ctlWG sync.WaitGroup
	applyEvent := func(ev chaos.Event) {
		switch ev.Kind {
		case chaos.Refresh:
			ctlWG.Add(1)
			go func() {
				defer ctlWG.Done()
				doRefresh(ev.Tick)
			}()
		case chaos.FlashCrowd:
			flashCrowd()
		case chaos.EdgeKill:
			slots[ev.Target].rep.Store(nil)
		case chaos.EdgeRestart:
			restartEdge(slots[ev.Target])
		case chaos.EdgeRollback:
			rollbackEdge(slots[ev.Target])
		case chaos.ByzantineFlip:
			if rep := slots[ev.Target].rep.Load(); rep != nil {
				rep.SetBehavior(ev.Behavior)
			}
		case chaos.OriginCrash:
			gate.tenant.Store(nil)
		case chaos.OriginRestart:
			ctlWG.Add(1)
			go func() {
				defer ctlWG.Done()
				if err := doOriginRestart(); err != nil {
					ctlFail(err)
				}
			}()
		case chaos.MirrorOutage:
			setMirror(ev.Target, mirror.Offline)
		case chaos.MirrorRecover:
			setMirror(ev.Target, mirror.Honest)
		case chaos.TenantDeploy:
			ctlWG.Add(1)
			go func() {
				defer ctlWG.Done()
				doTenantDeploy(ev.Tick)
			}()
		case chaos.TenantKill:
			ctlWG.Add(1)
			go func() {
				defer ctlWG.Done()
				doTenantKill()
			}()
		}
	}

	readPackage := func(c *soakClient, e index.Entry) {
		//lint:allow detrand timing block: client-observed package latency feeds the BENCH histogram, measured in real time
		t1 := time.Now()
		body, err := c.fc.FetchPackage(e.Name)
		if err != nil {
			failedReads.Add(1)
			return
		}
		pkgHist.ObserveSince(t1)
		packageReads.Add(1)
		if e.Name != soakWireName {
			checker.PackageAccepted(c.name, e, body)
			return
		}
		// The probe changes content under a fixed name, so a republish
		// landing between the index read and the package read makes the
		// strict single-entry pairing race; the bytes must instead match
		// SOME accepted generation. On a miss, feed the client's
		// refreshed index through the checker first — the client may
		// have re-verified mid-read against a generation the checker has
		// not recorded yet.
		if !checker.PackageMatchesAnyGen(e.Name, body) {
			if signed, err := c.fc.FetchIndex(); err == nil {
				checker.IndexAccepted(c.name, signed)
			}
		}
		checker.PackageAcceptedAnyGen(c.name, e.Name, body)
	}

	clientTick := func(c *soakClient, reads int) {
		//lint:allow detrand timing block: client-observed index latency feeds the BENCH histogram, measured in real time
		t0 := time.Now()
		signed, err := c.fc.FetchIndex()
		if err != nil {
			failedReads.Add(1)
			return
		}
		idxHist.ObserveSince(t0)
		indexReads.Add(1)
		ix := checker.IndexAccepted(c.name, signed)
		if ix == nil || len(ix.Entries) == 0 {
			return
		}
		for j := 0; j < reads; j++ {
			readPackage(c, ix.Entries[c.rng.Intn(len(ix.Entries))])
		}
		// Every tick ends on a probe read, so the replicas' differential
		// pull path is driven continuously, not only when the RNG lands
		// on the probe.
		if e, err := ix.Lookup(soakWireName); err == nil {
			readPackage(c, e)
		}
	}

	// --- the soak -----------------------------------------------------
	schedule := chaos.BuildSchedule(netsim.NewRNG(cfg.Seed+7), soakTicks, soakEdges, len(w.Mirrors))
	byTick := make(map[int][]chaos.Event)
	for _, ev := range schedule {
		byTick[ev.Tick] = append(byTick[ev.Tick], ev)
		res.Schedule = append(res.Schedule, ev.String())
	}
	res.Events = chaos.CountByKind(schedule)
	res.ComposedFailures = chaos.ComposedFailures(schedule)
	curve := netsim.DefaultDiurnal(time.Duration(soakTicks) * time.Hour)

	for tick := 0; tick < soakTicks; tick++ {
		for _, ev := range byTick[tick] {
			applyEvent(ev)
		}
		reads := int(math.Round(soakBaseReads * curve.At(time.Duration(tick)*time.Hour)))
		if reads < 1 {
			reads = 1
		}
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *soakClient) {
				defer wg.Done()
				clientTick(c, reads)
			}(c)
		}
		// Live replicas chase the origin concurrently with the traffic.
		for _, s := range slots {
			if rep := s.rep.Load(); rep != nil {
				wg.Add(1)
				go func(r *edge.Replica) {
					defer wg.Done()
					_ = r.SyncCtx(context.Background())
				}(rep)
			}
		}
		wg.Wait()
	}
	ctlWG.Wait()
	if err := firstCtlErr(); err != nil {
		return nil, err
	}

	// --- quiesce: heal everything, then assert convergence ------------
	if gate.tenant.Load() == nil {
		if err := doOriginRestart(); err != nil {
			return nil, err
		}
	}
	ctlMu.Lock()
	for _, m := range cur.Mirrors {
		m.SetBehavior(mirror.Honest)
	}
	tenantNow := gate.tenant.Load()
	ctlMu.Unlock()
	for _, s := range slots {
		if s.rep.Load() == nil {
			restartEdge(s)
		}
		rep := s.rep.Load()
		if rep == nil {
			return nil, fmt.Errorf("fleet-soak: %s failed to restart at quiesce", s.name)
		}
		rep.SetBehavior(edge.Honest)
		if err := rep.SyncCtx(context.Background()); err != nil {
			return nil, fmt.Errorf("fleet-soak: quiesce sync %s: %w", s.name, err)
		}
		// The run's own counters, before the probe reads below.
		st := rep.Stats()
		res.CoalescedPulls += st.CoalescedPulls
		res.CoalescedSyncs += st.CoalescedSyncs
		res.DiffPulls += st.DiffPulls
		res.DiffFallbacks += st.DiffFallbacks
		res.DiffBytesReused += st.DiffBytesReused
		res.DiffBytesFetched += st.DiffBytesFetched
		res.StreamedServes += st.StreamedServes
		// Hold the probe's current version: the diff base below.
		if _, err := rep.FetchPackageCtx(context.Background(), soakWireName); err != nil {
			return nil, fmt.Errorf("fleet-soak: quiesce probe read %s: %w", s.name, err)
		}
	}
	// One more generation bumps the probe, so every replica makes at
	// least one chunked differential pull however few the run's timing
	// allowed. A failed refresh shows as a chunked-pull violation.
	doRefresh(soakTicks)
	if err := firstCtlErr(); err != nil {
		return nil, err
	}
	for _, s := range slots {
		rep := s.rep.Load()
		before := rep.Stats().DiffPulls
		if err := rep.SyncCtx(context.Background()); err != nil {
			return nil, fmt.Errorf("fleet-soak: quiesce sync %s: %w", s.name, err)
		}
		if _, err := rep.FetchPackageCtx(context.Background(), soakWireName); err != nil {
			return nil, fmt.Errorf("fleet-soak: quiesce probe read %s: %w", s.name, err)
		}
		pulls := rep.Stats().DiffPulls - before
		checker.ChunkedPull(s.name, pulls)
		res.QuiesceDiffPulls += pulls
	}
	for _, c := range clients {
		signed, err := c.fc.FetchIndex()
		if err != nil {
			return nil, fmt.Errorf("fleet-soak: quiesce read %s: %w", c.name, err)
		}
		checker.IndexAccepted(c.name, signed)
		st := c.fc.Stats()
		res.Failovers += st.Failovers
		res.RejectedStale += st.RejectedStale
		res.RejectedBytes += st.RejectedBytes
		res.RejectedSignature += st.RejectedSignature
	}
	curSigned, _, err := tenantNow.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		return nil, err
	}
	curIx, err := index.Decode(curSigned.Raw)
	if err != nil {
		return nil, err
	}
	res.LaggingAtQuiesce = checker.Quiesced(curIx.Sequence)

	// Scheduler bound: the current life's peaks must respect the
	// configured pool, with the churn tenant's ingest and every refresh
	// counted against the same slots.
	ctlMu.Lock()
	res.Sched = cur.Service.Scheduler().Snapshot()
	ctlMu.Unlock()
	checker.SchedSnapshot("origin", res.Sched)

	// The quiesce-time origin restart can replay a queued churn deploy,
	// whose failures report through ctlFail — re-check before reporting.
	if err := firstCtlErr(); err != nil {
		return nil, err
	}

	// --- report -------------------------------------------------------
	res.IndexReads = indexReads.Load()
	res.PackageReads = packageReads.Load()
	res.FailedReads = failedReads.Load()
	res.IndexLatency = idxHist.Snapshot()
	res.PackageLatency = pkgHist.Snapshot()
	res.FrontHTTP = o.Snapshot()
	res.CrowdOffered = crowdOffered.Load()
	res.CrowdServed = crowdServed.Load()
	res.RangeReads = rangeReads.Load()
	res.OriginManifests = gate.manifests.Load()
	res.OriginRanges = gate.ranges.Load()
	res.CrowdShed = res.FrontHTTP.ShedTotal
	if res.CrowdOffered > 0 {
		res.ShedRate = float64(res.CrowdShed) / float64(res.CrowdOffered)
	}
	res.FrontTraces = frontTracer.Store().Stats()
	res.RefreshStages = originTracer.Store().Stages()
	res.Violations = checker.Violations()
	res.InvariantChecks = checker.Checks()
	res.InvariantViolations = len(res.Violations)
	return res, nil
}

// refreshStageRow renders the refresh.* stage aggregates as one
// deterministic table cell, slowest mean first.
func refreshStageRow(stages map[string]trace.StageAgg) string {
	type row struct {
		name string
		agg  trace.StageAgg
	}
	var rows []row
	for name, agg := range stages {
		if strings.HasPrefix(name, "refresh.") {
			rows = append(rows, row{name, agg})
		}
	}
	if len(rows) == 0 {
		return "none recorded"
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].agg.MeanMs != rows[j].agg.MeanMs {
			return rows[i].agg.MeanMs > rows[j].agg.MeanMs
		}
		return rows[i].name < rows[j].name
	})
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%s %.2f ms", strings.TrimPrefix(r.name, "refresh."), r.agg.MeanMs)
	}
	return strings.Join(parts, ", ")
}

// WriteBench writes the BENCH_fleet_soak.json document and returns its
// path.
func (r *FleetSoakResult) WriteBench(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_fleet_soak.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// FleetSoak is the registered experiment: it runs the soak, emits the
// BENCH document when Config.BenchDir is set, and fails — after
// emitting — when any invariant was violated, so CI turns red on the
// violation rather than on a missing artifact.
func FleetSoak(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	res, err := FleetSoakRun(cfg)
	if err != nil {
		return nil, err
	}
	var notes []string
	if cfg.BenchDir != "" {
		path, err := res.WriteBench(cfg.BenchDir)
		if err != nil {
			return nil, err
		}
		notes = append(notes, "machine-readable results: "+path)
	}
	if res.InvariantViolations > 0 {
		max := res.InvariantViolations
		if max > 8 {
			max = 8
		}
		msg := ""
		for _, v := range res.Violations[:max] {
			msg += "\n  " + v.String()
		}
		return nil, fmt.Errorf("fleet-soak: %d invariant violation(s):%s", res.InvariantViolations, msg)
	}
	t := &Table{
		Title:  "Fleet soak (composed failures under a diurnal load curve; every read invariant-checked)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"fleet", fmt.Sprintf("%d edges + origin, %d clients, %d ticks", res.Edges, res.Clients, res.Ticks)},
			{"composed failure events", fmt.Sprintf("%d (of %d scheduled events)", res.ComposedFailures, len(res.Schedule))},
			{"generations published", fmt.Sprintf("%d ok / %d failed / %d skipped (origin down)",
				res.RefreshesOK, res.RefreshesFailed, res.RefreshesSkipped)},
			{"client reads", fmt.Sprintf("%d index + %d package (%d failed-over endpoints, %d unavailable)",
				res.IndexReads, res.PackageReads, res.Failovers, res.FailedReads)},
			{"index read latency", fmt.Sprintf("p50 %.3f ms / p99 %.3f ms", res.IndexLatency.P50Ms, res.IndexLatency.P99Ms)},
			{"package read latency", fmt.Sprintf("p50 %.3f ms / p99 %.3f ms", res.PackageLatency.P50Ms, res.PackageLatency.P99Ms)},
			{"byzantine rejections", fmt.Sprintf("%d stale / %d tampered / %d bad signature",
				res.RejectedStale, res.RejectedBytes, res.RejectedSignature)},
			{"flash crowds", fmt.Sprintf("%d offered, %d served, %d shed (%.0f%%), peak inflight %d <= max %d",
				res.CrowdOffered, res.CrowdServed, res.CrowdShed, res.ShedRate*100,
				res.FrontHTTP.PeakInflight, res.MaxInflight)},
			{"coalesced pulls / syncs", fmt.Sprintf("%d / %d", res.CoalescedPulls, res.CoalescedSyncs)},
			{"chunked differential pulls", fmt.Sprintf("%d (%d B reused / %d B fetched, %d fallbacks; origin saw %d manifests + %d ranges), %d more at quiesce",
				res.DiffPulls, res.DiffBytesReused, res.DiffBytesFetched, res.DiffFallbacks,
				res.OriginManifests, res.OriginRanges, res.QuiesceDiffPulls)},
			{"streamed serves / verified 206s", fmt.Sprintf("%d / %d", res.StreamedServes, res.RangeReads)},
			{"origin warm restart under load", fmt.Sprintf("%v (%.1f ms)", res.OriginWarmRestart, res.WarmRestartMs)},
			{"tenant churn", fmt.Sprintf("%d deploys (%d pkgs via journaled ingest) / %d undeploys",
				res.ChurnDeploys, res.ChurnIngested, res.ChurnKills)},
			{"sched peaks", fmt.Sprintf("slots %d <= workers %d, active %d <= max %d",
				res.Sched.PeakSlots, res.Sched.Workers, res.Sched.PeakActive, res.Sched.MaxActive)},
			{"clients lagging at quiesce", fmt.Sprint(res.LaggingAtQuiesce)},
			{"front-edge traces kept", fmt.Sprintf("%d (merged %d, evicted %d)",
				res.FrontTraces.Kept, res.FrontTraces.Merged, res.FrontTraces.Evicted)},
			{"refresh stage means", refreshStageRow(res.RefreshStages)},
			{"invariant checks / violations", fmt.Sprintf("%d / %d", res.InvariantChecks, res.InvariantViolations)},
		},
		Notes: append([]string{
			"invariants (docs/SOAK.md): verified bytes, index signature, monotone sequence, ETag==sha256(body),",
			"range-consistent 206s, shed contract, admission bound, bounded staleness and a chunked pull per replica after quiesce —",
			"one violation fails the run",
		}, notes...),
	}
	return t, nil
}

// edgeContinents is the replica placement rotation: the paper's three
// mirror continents first, then the edge-only ones.
var edgeContinents = []netsim.Continent{
	netsim.Europe, netsim.NorthAmerica, netsim.Asia, netsim.SouthAmerica, netsim.Oceania,
}

// publishGeneration publishes soakPackage(name) and refreshes the
// tenant under ctx, producing a new origin index generation; a traced
// ctx yields an origin.refresh span tree per generation (the soak
// reports the per-stage breakdown from these).
func publishGeneration(ctx context.Context, w *World, name string) error {
	p := soakPackage(name)
	if err := apk.Sign(p, w.Distro); err != nil {
		return err
	}
	if err := w.Repo.Publish(p); err != nil {
		return err
	}
	for _, m := range w.Mirrors {
		m.Sync(w.Repo)
	}
	_, err := w.Tenant.RefreshCtx(ctx)
	return err
}

// inParallel runs fn in k goroutines released together and waits for
// all of them.
func inParallel(k int, fn func()) {
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			fn()
		}()
	}
	close(gate)
	wg.Wait()
}

// firstPackageName returns the first package of a signed index — the
// shared probe every flash-crowd client requests.
func firstPackageName(signed *index.Signed) (string, error) {
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		return "", err
	}
	names := ix.Names()
	if len(names) == 0 {
		return "", fmt.Errorf("flash-crowd: empty index")
	}
	return names[0], nil
}
