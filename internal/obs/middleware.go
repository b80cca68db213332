package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tsr/internal/trace"
)

// Options configures one daemon's observability wrapper.
type Options struct {
	// MaxInflight bounds concurrently served requests; excess load is
	// shed with 429 + Retry-After instead of queueing unboundedly
	// behind a saturated handler. 0 means unlimited (metrics only).
	MaxInflight int64
	// RetryAfter is the Retry-After hint on shed responses (default 1s,
	// rounded up to whole seconds as the header requires).
	RetryAfter time.Duration
	// Tracer enables request tracing: Wrap opens a tier-labeled server
	// span per request, joins an upstream trace from the X-Tsr-Trace-Id
	// / X-Tsr-Span-Id headers, echoes the identity on the response, and
	// serves the trace store at GET /debug/traces. nil disables tracing
	// (requests cost two context lookups and nothing else).
	Tracer *trace.Tracer
	// Sched, when non-nil, folds the global refresh scheduler into
	// GET /metrics: its snapshot under the "sched" key of the JSON
	// document, and its tsr_sched_* series appended to the Prometheus
	// exposition.
	Sched SchedSource
}

// SchedSource is what obs needs from the refresh scheduler. It is an
// interface (satisfied by *sched.Scheduler) so the dependency points
// the right way: sched uses obs histograms, obs knows nothing of sched.
type SchedSource interface {
	// SchedSnapshot returns the JSON-marshalable scheduler state.
	SchedSnapshot() any
	// WriteSchedPrometheus appends the scheduler's series in Prometheus
	// text exposition format.
	WriteSchedPrometheus(w io.Writer)
}

// Obs wraps an http.Handler with the metrics subsystem and admission
// control, and serves the registry at GET /metrics.
type Obs struct {
	metrics    *Metrics
	max        int64
	retryAfter string
	tracer     *trace.Tracer
	sched      SchedSource
}

// New builds an Obs with a fresh Metrics registry. When a Tracer is
// supplied its "slow" always-keep rule is wired to this registry's
// per-route p99, so the traces kept are exactly the ones the latency
// histograms flag as outliers.
func New(opts Options) *Obs {
	retry := opts.RetryAfter
	if retry <= 0 {
		retry = time.Second
	}
	secs := int64((retry + time.Second - 1) / time.Second)
	o := &Obs{
		metrics:    NewMetrics(),
		max:        opts.MaxInflight,
		retryAfter: strconv.FormatInt(secs, 10),
		tracer:     opts.Tracer,
		sched:      opts.Sched,
	}
	if o.tracer != nil {
		m := o.metrics
		o.tracer.SetSlow(func(root string, d time.Duration) bool {
			th := m.SlowThreshold(root)
			return th > 0 && d > th
		})
	}
	return o
}

// Snapshot reads the full metrics document.
func (o *Obs) Snapshot() Snapshot {
	s := o.metrics.Snapshot()
	s.MaxInflight = o.max
	if o.sched != nil {
		s.Sched = o.sched.SchedSnapshot()
	}
	return s
}

// Wrap returns next wrapped with metrics + admission control, plus the
// GET /metrics endpoint. Request flow:
//
//  1. GET /metrics is answered from the registry (never shed — the
//     one endpoint that must work during an overload is the one that
//     shows the overload).
//  2. /healthz bypasses admission control too: load shedding must not
//     make the daemon look dead to its orchestrator. It is still
//     measured.
//  3. Everything else passes the in-flight gate: a CAS increment up to
//     MaxInflight, or 429 + Retry-After and a shed count.
//  4. Served requests record latency and status class per route, and
//     — with a Tracer — run under a server span carrying the route key,
//     joined to the caller's trace when the request headers name one.
func (o *Obs) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
			o.serveMetrics(w, r)
			return
		}
		if o.tracer != nil && (r.Method == http.MethodGet || r.Method == http.MethodHead) &&
			(r.URL.Path == "/debug/traces" || strings.HasPrefix(r.URL.Path, "/debug/traces/")) {
			o.serveTraces(w, r)
			return
		}
		key := routeKey(r.Method, r.URL.Path)
		ctx := r.Context()
		if o.tracer != nil {
			ctx = trace.NewContext(ctx, o.tracer)
			if tid, sid, ok := trace.Extract(r.Header); ok {
				ctx = trace.WithRemote(ctx, tid, sid)
			}
		}
		ctx, sp := trace.Start(ctx, key)
		defer sp.End()
		if sp != nil {
			sp.SetAttr("path", r.URL.Path)
			// Echo the identity before anything can write the response:
			// the client learns its trace ID even when the request is
			// shed, and can quote it against /debug/traces/{id}.
			w.Header().Set(trace.HeaderTraceID, sp.TraceID())
			w.Header().Set(trace.HeaderSpanID, sp.SpanID())
			r = r.WithContext(ctx)
		}
		// gauged: whether this request occupies an in-flight slot. When
		// admission is on, exempt paths (/healthz) bypass the gate AND
		// the gauge — a health probe must neither consume admission
		// capacity (at -max-inflight 1 a probe would shed every real
		// request) nor push the gauge past the bound acquire()
		// guarantees. With admission off the gauge is pure telemetry
		// and counts everything.
		gauged := true
		switch {
		case o.max > 0 && r.URL.Path != "/healthz":
			if !o.acquire() {
				o.metrics.ObserveShed(key)
				sp.MarkShed()
				sp.SetHTTPStatus(http.StatusTooManyRequests)
				w.Header().Set("Retry-After", o.retryAfter)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				_ = json.NewEncoder(w).Encode(map[string]string{
					"error": "server at max in-flight capacity; retry after backoff",
				})
				return
			}
		case o.max > 0:
			gauged = false
		default:
			o.metrics.RequestStarted()
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		cb := &countingBody{rc: r.Body}
		r.Body = cb
		defer func() {
			d := time.Since(start)
			if gauged {
				o.metrics.RequestDone()
			}
			o.metrics.ObserveRequest(key, sw.status, d, cb.n.Load(), sw.bytes.Load())
			// Runs before the deferred sp.End() (LIFO), so the status
			// lands on the span before the root flush samples the trace.
			sp.SetHTTPStatus(sw.status)
		}()
		next.ServeHTTP(sw, r)
	})
}

// serveMetrics answers GET /metrics, content-negotiated: JSON by
// default, Prometheus text format 0.0.4 when the Accept header asks
// for it. Never shed — the one endpoint that must work during an
// overload is the one that shows the overload.
func (o *Obs) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", promContentType)
		WritePrometheus(w, o.Snapshot())
		if o.sched != nil {
			o.sched.WriteSchedPrometheus(w)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(o.Snapshot())
}

// serveTraces answers GET /debug/traces (store stats, per-stage
// latency breakdown, and trace summaries) and GET /debug/traces/{id}
// (one stored trace as a span tree). Like /metrics it bypasses
// admission control: diagnosing an overload requires it.
func (o *Obs) serveTraces(w http.ResponseWriter, r *http.Request) {
	st := o.tracer.Store()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if r.URL.Path == "/debug/traces" {
		_ = enc.Encode(struct {
			Stats  trace.StoreStats          `json:"stats"`
			Stages map[string]trace.StageAgg `json:"stages,omitempty"`
			Traces []trace.Summary           `json:"traces"`
		}{st.Stats(), st.Stages(), st.List()})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	td, ok := st.Get(id)
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		_ = enc.Encode(map[string]string{
			"error": "no such trace (it may have been head-sampled out or evicted)",
		})
		return
	}
	_ = enc.Encode(td)
}

// acquire tries to reserve one in-flight slot; false means shed. The
// gate IS the metrics in-flight gauge (one CAS reserves the slot and
// moves the gauge together), so /metrics reports exactly the quantity
// admission is bounding and the bound is never transiently exceeded.
func (o *Obs) acquire() bool {
	for {
		cur := o.metrics.inflight.Load()
		if cur >= o.max {
			return false
		}
		if o.metrics.inflight.CompareAndSwap(cur, cur+1) {
			o.metrics.notePeak(cur + 1)
			return true
		}
	}
}

// statusWriter captures the response status and body byte count for
// the metrics record. The byte count is atomic because the streaming
// serve path can still be writing when a client disconnect unwinds the
// handler.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	bytes  atomic.Int64
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes.Add(int64(n))
	return n, err
}

// countingBody counts request-body bytes as the handler reads them.
type countingBody struct {
	rc io.ReadCloser
	n  atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// routeKey normalizes a request path to its route pattern, so metrics
// aggregate per endpoint instead of per URL. It mirrors the route
// shapes of the tsr and edge handlers: the repo id and package name
// segments become {id} and {pkg}. Unmatched paths pass through but
// are clipped (segment count and byte length), so a single absurd URL
// cannot become a kilobytes-long registry key; the registry itself is
// additionally capped (see maxEndpoints).
func routeKey(method, path string) string {
	trimmed := strings.Trim(path, "/")
	if trimmed == "" {
		return method + " /"
	}
	parts := strings.Split(trimmed, "/")
	if len(parts) > 5 {
		parts = append(parts[:5], "...")
	}
	if parts[0] == "repos" && len(parts) >= 2 {
		parts[1] = "{id}"
		if len(parts) >= 4 && (parts[2] == "packages" || parts[2] == "scripts") {
			parts[3] = "{pkg}"
		}
	}
	key := method + " /" + strings.Join(parts, "/")
	if len(key) > 96 {
		key = key[:96] + "..."
	}
	return key
}
