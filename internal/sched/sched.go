// Package sched is the global refresh scheduler: one admission
// controller shared by every tenant repository of a TSR origin,
// replacing the per-repo worker pools that let N tenants oversubscribe
// the box N-fold.
//
// Two resources are arbitrated:
//
//   - Job admission. Run() admits at most MaxActive refresh/ingest jobs
//     at once, picking the next job by start-time fair queueing (SFQ):
//     per-tenant virtual finish tags, weighted, so a tenant that
//     refreshes ten 10x-size repos cannot starve a small tenant — its
//     jobs simply carry later finish tags. Two priority bands sit above
//     the tags: an Interactive job (operator POST /refresh, bulk
//     ingest) always dispatches before any queued Background job
//     (auto-refresh), whatever the tags say.
//
//   - Worker slots. An admitted job does its parallel work (mirror
//     fetches, sanitizations) in batches of slots leased from one
//     shared pool of Config.Workers via Grant.Acquire, sized to the
//     job's fair share of the pool. The pool is the global bound: the
//     sum of every tenant's in-flight pipeline goroutines never exceeds
//     Workers, no matter how many repos are deployed — which also
//     bounds the enclave paging working set the batches generate.
//
// The scheduler owns no goroutines: the caller's goroutine IS the
// worker, blocking in Run until admitted. That keeps lifecycle trivial
// (nothing to shut down) and makes the scheduler safe to embed in every
// Service, including the hundreds constructed by tests.
//
// Both bounds are optional (0 = unbounded): a zero Config degrades to
// the historical per-repo behaviour while still recording per-tenant
// wait/run histograms and the busy watermarks the invariant checker
// asserts against.
package sched

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"time"

	"tsr/internal/obs"
	"tsr/internal/trace"
)

// Priority selects the admission band.
type Priority int

const (
	// Background is the auto-refresh band: queued work is dispatched in
	// weighted-fair order, but always behind Interactive.
	Background Priority = iota
	// Interactive is the operator band (POST /refresh, bulk ingest):
	// it preempts every queued Background job.
	Interactive
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case Background:
		return "background"
	case Interactive:
		return "interactive"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Config sizes the scheduler.
type Config struct {
	// Workers is the shared slot pool leased out via Grant.Acquire —
	// the global bound on concurrently running pipeline goroutines
	// across every tenant. 0 = unbounded (per-repo caps only).
	Workers int
	// MaxActive bounds concurrently admitted jobs. 0 = unbounded.
	// Values above Workers still make progress: Acquire always grants
	// at least one slot to a job that waits its turn.
	MaxActive int
}

// waiter is one queued Run call.
type waiter struct {
	tenant string
	pri    Priority
	start  float64 // SFQ virtual start tag
	finish float64 // SFQ virtual finish tag
	seq    uint64  // FIFO tiebreak
	ready  chan struct{}
}

// tenantStats accumulates one tenant's scheduling history.
type tenantStats struct {
	wait      *obs.Histogram
	run       *obs.Histogram
	completed int64
}

// Scheduler is the global refresh scheduler. The zero value is NOT
// ready; use New.
type Scheduler struct {
	workers   int
	maxActive int

	mu         sync.Mutex
	slotCond   *sync.Cond // waiters for pool slots
	vtime      float64    // SFQ global virtual time
	lastFinish map[string]float64
	weights    map[string]float64
	queue      []*waiter // admission queue, picked by pickLocked
	seq        uint64
	active     int
	peakActive int
	slotsInUse int
	peakSlots  int
	queued     [2]int
	completed  [2]int64
	tenants    map[string]*tenantStats
}

// New builds a scheduler from cfg.
func New(cfg Config) *Scheduler {
	s := &Scheduler{
		workers:    max(cfg.Workers, 0),
		maxActive:  max(cfg.MaxActive, 0),
		lastFinish: make(map[string]float64),
		weights:    make(map[string]float64),
		tenants:    make(map[string]*tenantStats),
	}
	s.slotCond = sync.NewCond(&s.mu)
	return s
}

func (s *Scheduler) weightLocked(tenant string) float64 {
	if w, ok := s.weights[tenant]; ok {
		return w
	}
	return 1
}

func (s *Scheduler) statsLocked(tenant string) *tenantStats {
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantStats{wait: &obs.Histogram{}, run: &obs.Histogram{}}
		s.tenants[tenant] = ts
	}
	return ts
}

// pickLocked removes and returns the next admissible waiter: the
// Interactive band drains first; within a band the smallest finish tag
// wins, FIFO on ties.
func (s *Scheduler) pickLocked() *waiter {
	best := -1
	for i, w := range s.queue {
		if best == -1 {
			best = i
			continue
		}
		b := s.queue[best]
		if w.pri != b.pri {
			if w.pri > b.pri {
				best = i
			}
			continue
		}
		if w.finish < b.finish || (w.finish == b.finish && w.seq < b.seq) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	w := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	return w
}

// dispatchLocked admits queued jobs while capacity remains.
func (s *Scheduler) dispatchLocked() {
	for (s.maxActive == 0 || s.active < s.maxActive) && len(s.queue) > 0 {
		w := s.pickLocked()
		s.queued[w.pri]--
		s.admitLocked(w)
		close(w.ready)
	}
}

// admitLocked accounts one job becoming active and advances the SFQ
// virtual clock to its start tag, so tags assigned later never predate
// work already dispatched.
func (s *Scheduler) admitLocked(w *waiter) {
	if w.start > s.vtime {
		s.vtime = w.start
	}
	s.active++
	if s.active > s.peakActive {
		s.peakActive = s.active
	}
}

// Run executes fn as one scheduled job for tenant at the given
// priority, blocking the calling goroutine until the job is admitted.
// fn receives a Grant for leasing worker slots from the shared pool.
// ctx cancellation is honoured while queued; once fn starts, cancelling
// is fn's business. The queue wait and the job body are recorded as
// "sched.wait" / "sched.run" spans and in the tenant's wait/run
// histograms.
func (s *Scheduler) Run(ctx context.Context, tenant string, pri Priority, fn func(ctx context.Context, g *Grant) error) error {
	ctx, waitSp := trace.Start(ctx, "sched.wait")
	waitSp.SetAttr("tenant", tenant)
	waitSp.SetAttr("band", pri.String())
	enqueued := time.Now()

	s.mu.Lock()
	start := s.vtime
	if lf := s.lastFinish[tenant]; lf > start {
		start = lf
	}
	finish := start + 1/s.weightLocked(tenant)
	s.lastFinish[tenant] = finish
	w := &waiter{tenant: tenant, pri: pri, start: start, finish: finish, seq: s.seq, ready: make(chan struct{})}
	s.seq++
	if s.maxActive == 0 || (s.active < s.maxActive && len(s.queue) == 0) {
		s.admitLocked(w)
		close(w.ready)
	} else {
		s.queue = append(s.queue, w)
		s.queued[pri]++
	}
	s.mu.Unlock()

	select {
	case <-w.ready:
	case <-ctx.Done():
		s.mu.Lock()
		removed := false
		for i, q := range s.queue {
			if q == w {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				s.queued[pri]--
				removed = true
				break
			}
		}
		s.mu.Unlock()
		if removed {
			waitSp.SetError(ctx.Err())
			waitSp.End()
			return ctx.Err()
		}
		// Lost the race: dispatch admitted us while we were cancelling.
		// Fall through as admitted and let fn observe ctx.Done.
		<-w.ready
	}
	wait := time.Since(enqueued)
	waitSp.End()

	ctx, runSp := trace.Start(ctx, "sched.run")
	runSp.SetAttr("tenant", tenant)
	started := time.Now()
	g := &Grant{s: s}
	err := fn(ctx, g)
	g.releaseAll()
	runSp.SetError(err)
	runSp.End()

	s.mu.Lock()
	s.active--
	ts := s.statsLocked(tenant)
	ts.wait.Observe(wait)
	ts.run.Observe(time.Since(started))
	ts.completed++
	s.completed[pri]++
	s.dispatchLocked()
	s.mu.Unlock()
	return err
}

// Grant is an admitted job's lease interface to the shared slot pool.
// It is not safe for concurrent use by multiple goroutines — one
// pipeline loop acquires, fans out that many goroutines, and releases.
type Grant struct {
	s    *Scheduler
	held int
}

// Acquire leases up to want slots, blocking until at least one is
// free. The lease is capped at the job's fair share of the pool —
// max(1, Workers/active) — so one early job cannot camp on the whole
// pool while others are admitted. With an unbounded pool (Workers 0)
// it returns want outright. Returns 0 only when want <= 0.
func (g *Grant) Acquire(want int) int {
	if want <= 0 {
		return 0
	}
	s := g.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.workers == 0 {
		g.held += want
		s.slotsInUse += want
		if s.slotsInUse > s.peakSlots {
			s.peakSlots = s.slotsInUse
		}
		return want
	}
	for s.slotsInUse >= s.workers {
		s.slotCond.Wait()
	}
	share := 1
	if s.active > 0 {
		share = max(1, s.workers/s.active)
	}
	n := min(want, share)
	n = min(n, s.workers-s.slotsInUse)
	g.held += n
	s.slotsInUse += n
	if s.slotsInUse > s.peakSlots {
		s.peakSlots = s.slotsInUse
	}
	return n
}

// Release returns n slots to the pool.
func (g *Grant) Release(n int) {
	if n <= 0 {
		return
	}
	s := g.s
	s.mu.Lock()
	if n > g.held {
		n = g.held
	}
	g.held -= n
	s.slotsInUse -= n
	s.mu.Unlock()
	s.slotCond.Broadcast()
}

// releaseAll returns any slots a job leaked (fn returned or panicked
// while holding a lease).
func (g *Grant) releaseAll() { g.Release(g.held) }

// TenantSnapshot is one tenant's scheduling history.
type TenantSnapshot struct {
	Tenant    string                `json:"tenant"`
	Completed int64                 `json:"completed"`
	Wait      obs.HistogramSnapshot `json:"wait"`
	Run       obs.HistogramSnapshot `json:"run"`
}

// Snapshot is a point-in-time view of the scheduler, exposed via
// GET /stats and /metrics.
type Snapshot struct {
	// Workers and MaxActive echo the configured bounds (0 = unbounded).
	Workers   int `json:"workers"`
	MaxActive int `json:"max_active"`
	// QueueDepth is the current admission queue split by band.
	QueueDepth           int              `json:"queue_depth"`
	QueuedInteractive    int              `json:"queued_interactive"`
	QueuedBackground     int              `json:"queued_background"`
	Active               int              `json:"active"`
	PeakActive           int              `json:"peak_active"`
	SlotsInUse           int              `json:"slots_in_use"`
	PeakSlots            int              `json:"peak_slots"`
	CompletedInteractive int64            `json:"completed_interactive"`
	CompletedBackground  int64            `json:"completed_background"`
	Tenants              []TenantSnapshot `json:"tenants,omitempty"`
}

// Snapshot returns the current scheduler state, tenants sorted by id
// so output is deterministic.
func (s *Scheduler) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Workers:              s.workers,
		MaxActive:            s.maxActive,
		QueueDepth:           len(s.queue),
		QueuedInteractive:    s.queued[Interactive],
		QueuedBackground:     s.queued[Background],
		Active:               s.active,
		PeakActive:           s.peakActive,
		SlotsInUse:           s.slotsInUse,
		PeakSlots:            s.peakSlots,
		CompletedInteractive: s.completed[Interactive],
		CompletedBackground:  s.completed[Background],
	}
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ts := s.tenants[id]
		snap.Tenants = append(snap.Tenants, TenantSnapshot{
			Tenant:    id,
			Completed: ts.completed,
			Wait:      ts.wait.Snapshot(),
			Run:       ts.run.Snapshot(),
		})
	}
	return snap
}

// SchedSnapshot implements obs.SchedSource.
func (s *Scheduler) SchedSnapshot() any { return s.Snapshot() }

// WriteSchedPrometheus implements obs.SchedSource: the scheduler state
// in Prometheus text exposition format 0.0.4, appended after the
// serving-tier metrics on a content-negotiated GET /metrics scrape.
// Per-tenant wait/run latencies are emitted as summaries (bucket-bound
// quantiles, like every histogram in this repo: ≤2x overestimates).
func (s *Scheduler) WriteSchedPrometheus(w io.Writer) {
	snap := s.Snapshot()
	writeHeader := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	writeHeader("tsr_sched_workers", "Global worker-slot pool size (0 = unbounded).", "gauge")
	fmt.Fprintf(w, "tsr_sched_workers %d\n", snap.Workers)
	writeHeader("tsr_sched_max_active", "Admission bound on concurrently active jobs (0 = unbounded).", "gauge")
	fmt.Fprintf(w, "tsr_sched_max_active %d\n", snap.MaxActive)
	writeHeader("tsr_sched_queue_depth", "Jobs waiting for admission, by priority band.", "gauge")
	fmt.Fprintf(w, "tsr_sched_queue_depth{band=\"interactive\"} %d\n", snap.QueuedInteractive)
	fmt.Fprintf(w, "tsr_sched_queue_depth{band=\"background\"} %d\n", snap.QueuedBackground)
	writeHeader("tsr_sched_active", "Currently admitted jobs.", "gauge")
	fmt.Fprintf(w, "tsr_sched_active %d\n", snap.Active)
	writeHeader("tsr_sched_active_peak", "High-water mark of concurrently admitted jobs.", "gauge")
	fmt.Fprintf(w, "tsr_sched_active_peak %d\n", snap.PeakActive)
	writeHeader("tsr_sched_slots_in_use", "Worker slots currently leased from the shared pool.", "gauge")
	fmt.Fprintf(w, "tsr_sched_slots_in_use %d\n", snap.SlotsInUse)
	writeHeader("tsr_sched_slots_peak", "High-water mark of leased worker slots.", "gauge")
	fmt.Fprintf(w, "tsr_sched_slots_peak %d\n", snap.PeakSlots)
	writeHeader("tsr_sched_jobs_total", "Completed jobs by priority band.", "counter")
	fmt.Fprintf(w, "tsr_sched_jobs_total{band=\"interactive\"} %d\n", snap.CompletedInteractive)
	fmt.Fprintf(w, "tsr_sched_jobs_total{band=\"background\"} %d\n", snap.CompletedBackground)

	writeHeader("tsr_sched_tenant_wait_seconds", "Admission queue wait per tenant.", "summary")
	for _, t := range snap.Tenants {
		writeTenantSummary(w, "tsr_sched_tenant_wait_seconds", t.Tenant, t.Wait)
	}
	writeHeader("tsr_sched_tenant_run_seconds", "Job run time per tenant.", "summary")
	for _, t := range snap.Tenants {
		writeTenantSummary(w, "tsr_sched_tenant_run_seconds", t.Tenant, t.Run)
	}
}

// writeTenantSummary renders one tenant histogram as a Prometheus
// summary: quantile samples plus _sum/_count.
func writeTenantSummary(w io.Writer, name, tenant string, h obs.HistogramSnapshot) {
	fmt.Fprintf(w, "%s{tenant=%q,quantile=\"0.5\"} %g\n", name, tenant, h.P50Ms/1e3)
	fmt.Fprintf(w, "%s{tenant=%q,quantile=\"0.9\"} %g\n", name, tenant, h.P90Ms/1e3)
	fmt.Fprintf(w, "%s{tenant=%q,quantile=\"0.99\"} %g\n", name, tenant, h.P99Ms/1e3)
	fmt.Fprintf(w, "%s_sum{tenant=%q} %g\n", name, tenant, h.MeanMs*float64(h.Count)/1e3)
	fmt.Fprintf(w, "%s_count{tenant=%q} %d\n", name, tenant, h.Count)
}

// Stagger returns a deterministic phase offset in [0, period) for id,
// derived from a hash of the id: with R repos auto-refreshing every
// period, their cycles spread across the period instead of firing
// together (no thundering herd), and the spread is identical across
// restarts and replicas.
func Stagger(id string, period time.Duration) time.Duration {
	if period <= 0 {
		return 0
	}
	return time.Duration(hash64(id) % uint64(period))
}

// Jitter returns a deterministic per-round jitter in [0, width) for
// (id, round), decorrelating repos whose staggered deadlines drifted
// together. Purely hash-derived: no global RNG, reproducible anywhere.
func Jitter(id string, round uint64, width time.Duration) time.Duration {
	if width <= 0 {
		return 0
	}
	return time.Duration(hash64(fmt.Sprintf("%s#%d", id, round)) % uint64(width))
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
