// Package trace is a dependency-free span/trace layer for the tsr
// serving tiers. A trace is a tree of spans sharing one trace ID; spans
// are carried in a context.Context and propagated across process (and
// tier) boundaries via the X-Tsr-Trace-Id / X-Tsr-Span-Id request
// headers, so one trace stitches client → edge → (chained edge) →
// origin. Coalesced followers (flight.Group waiters) do not fabricate
// an upstream call; they record a coalesced=true link to the leader's
// span instead.
//
// The hot path is deliberately cheap: starting a span is two PRNG
// draws and a small allocation, attributes append to a private slice,
// and no lock shared between requests is taken until a trace is
// *kept*. The keep decision happens once, when the root span ends:
// errored, shed, and slow (per-route p99-exceeding, via a pluggable
// predicate) traces are always kept; the rest are head-sampled by a
// deterministic hash of the trace ID, so every tier of a chain makes
// the same decision without a sampling flag on the wire.
package trace

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"
)

// Wire format: trace and span IDs travel as lowercase hex in these
// request headers. The response also carries them (set by obs.Wrap),
// so a client can look up its own trace at /debug/traces/{id}.
const (
	HeaderTraceID = "X-Tsr-Trace-Id"
	HeaderSpanID  = "X-Tsr-Span-Id"

	traceIDLen = 32 // 16 bytes, hex
	spanIDLen  = 16 // 8 bytes, hex
)

// maxSpansPerTrace bounds one trace's span count; beyond it new child
// spans are dropped (and counted), so a pathological request cannot
// balloon memory.
const maxSpansPerTrace = 64

// Keep reasons recorded on stored traces.
const (
	KeepError = "error"
	KeepShed  = "shed"
	KeepSlow  = "slow"
	KeepHead  = "head"
)

// Config configures a Tracer.
type Config struct {
	// Tier labels every span this tracer roots ("origin", "edge",
	// "client", ...); child spans inherit it unless overridden with
	// SetTier.
	Tier string
	// Capacity bounds the trace store (default 512 traces, FIFO).
	Capacity int
	// HeadEvery keeps 1-in-N of the traces that no always-keep rule
	// claims (default 16; values <= 1 keep everything).
	HeadEvery int
}

// Tracer owns the sampling policy and the bounded store. One per
// daemon; safe for concurrent use.
type Tracer struct {
	tier      string
	headEvery uint64
	store     *Store

	mu   sync.RWMutex
	slow func(root string, d time.Duration) bool
}

// NewTracer builds a Tracer with its own bounded store.
func NewTracer(cfg Config) *Tracer {
	cap := cfg.Capacity
	if cap <= 0 {
		cap = 512
	}
	every := cfg.HeadEvery
	if every <= 0 {
		every = 16
	}
	return &Tracer{
		tier:      cfg.Tier,
		headEvery: uint64(every),
		store:     newStore(cap),
	}
}

// Store returns the tracer's bounded trace store.
func (t *Tracer) Store() *Store { return t.store }

// SetSlow installs the always-keep predicate for slow traces. The obs
// layer wires this to its per-route p99 so "slow" tracks the live
// latency distribution rather than a fixed threshold.
func (t *Tracer) SetSlow(fn func(root string, d time.Duration) bool) {
	t.mu.Lock()
	t.slow = fn
	t.mu.Unlock()
}

func (t *Tracer) isSlow(root string, d time.Duration) bool {
	t.mu.RLock()
	fn := t.slow
	t.mu.RUnlock()
	return fn != nil && fn(root, d)
}

// context keys.
type (
	tracerKey struct{}
	spanKey   struct{}
	remoteKey struct{}
)

// remoteParent is an extracted upstream trace/span identity.
type remoteParent struct {
	traceID string
	spanID  string
}

// NewContext returns ctx carrying the tracer: the next Start on a
// descendant context roots a new trace.
func NewContext(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the tracer carried by ctx, or nil.
func FromContext(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// WithRemote records an upstream parent (extracted from request
// headers) on ctx: the next root span joins that trace instead of
// starting a fresh one. Invalid IDs are ignored by Extract, so rm is
// always well-formed here.
func WithRemote(ctx context.Context, traceID, spanID string) context.Context {
	if !ValidTraceID(traceID) || !ValidSpanID(spanID) {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, remoteParent{traceID: traceID, spanID: spanID})
}

// Start begins a span named name. If ctx already carries a span the
// new span is its child; otherwise, if ctx carries a Tracer, it roots
// a new trace (joining a remote parent recorded by WithRemote, if
// any). With neither, Start returns (ctx, nil) and every method on the
// nil span is a no-op — untraced paths cost one context lookup.
//
// The caller must End the returned span on every path (the spanend
// lint enforces this); ending the root span flushes the trace through
// the sampler into the store.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	if parent := SpanFromContext(ctx); parent != nil {
		sp := parent.rec.newSpan(name, parent.spanID, parent.tier, false)
		if sp == nil {
			return ctx, nil
		}
		return context.WithValue(ctx, spanKey{}, sp), sp
	}
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	r := &rec{tracer: t}
	parentID := ""
	if rm, ok := ctx.Value(remoteKey{}).(remoteParent); ok {
		r.traceID = rm.traceID
		r.remote = true
		parentID = rm.spanID
	} else {
		r.traceID = newTraceID()
	}
	sp := r.newSpan(name, parentID, t.tier, true)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// rec is the shared per-trace record: every span of one local trace
// tree points at it. Its mutex is private to the trace, so concurrent
// requests never contend on it.
type rec struct {
	tracer  *Tracer
	traceID string
	remote  bool

	mu      sync.Mutex
	spans   []*Span
	dropped int
	flagged bool // any span errored
	shed    bool // any span shed
}

func (r *rec) newSpan(name, parentID, tier string, root bool) *Span {
	sp := &Span{
		rec:      r,
		name:     name,
		tier:     tier,
		spanID:   newSpanID(),
		parentID: parentID,
		start:    time.Now(),
		root:     root,
	}
	r.mu.Lock()
	if len(r.spans) >= maxSpansPerTrace {
		r.dropped++
		r.mu.Unlock()
		return nil
	}
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	return sp
}

// Span is one timed operation in a trace. All methods are safe on a
// nil receiver, so callers never guard instrumentation with nil
// checks.
type Span struct {
	rec      *rec
	name     string
	spanID   string
	parentID string
	start    time.Time
	root     bool

	mu     sync.Mutex
	tier   string
	attrs  []Attr
	errMsg string
	shed   bool
	link   *Link
	end    time.Time
	ended  bool
}

// TraceID returns the span's trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.traceID
}

// SpanID returns the span's ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// SetTier overrides the tier label ("origin", "edge", "client").
func (s *Span) SetTier(tier string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tier = tier
	s.mu.Unlock()
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt attaches an integer attribute.
func (s *Span) SetAttrInt(key string, value int64) {
	s.SetAttr(key, fmt.Sprintf("%d", value))
}

// SetError records err on the span and flags the whole trace for
// always-keep. A nil err is a no-op.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
	s.rec.mu.Lock()
	s.rec.flagged = true
	s.rec.mu.Unlock()
}

// MarkShed records that admission control shed this request; shed
// traces are always kept.
func (s *Span) MarkShed() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.shed = true
	s.mu.Unlock()
	s.rec.mu.Lock()
	s.rec.shed = true
	s.rec.mu.Unlock()
}

// SetHTTPStatus records the response status; 5xx also flags the trace
// for always-keep.
func (s *Span) SetHTTPStatus(code int) {
	if s == nil {
		return
	}
	s.SetAttrInt("http.status", int64(code))
	if code >= 500 {
		s.mu.Lock()
		if s.errMsg == "" {
			s.errMsg = fmt.Sprintf("http status %d", code)
		}
		s.mu.Unlock()
		s.rec.mu.Lock()
		s.rec.flagged = true
		s.rec.mu.Unlock()
	}
}

// LinkCoalesced records that this span's work was served by leader's
// flight instead of an upstream call of its own. No-op when either
// side is untraced.
func (s *Span) LinkCoalesced(leader *Span) {
	if s == nil || leader == nil {
		return
	}
	link := &Link{TraceID: leader.rec.traceID, SpanID: leader.spanID, Coalesced: true}
	s.mu.Lock()
	s.link = link
	s.mu.Unlock()
}

// End finishes the span. Ending the root span runs the sampler and, if
// the trace is kept, flushes it into the store. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	s.mu.Unlock()
	if s.root {
		s.rec.flush(s)
	}
}

// flush decides keep-or-drop for the finished trace and offers it to
// the store. Runs once, on the root's goroutine.
func (r *rec) flush(root *Span) {
	d := root.end.Sub(root.start)
	r.mu.Lock()
	flagged, shed := r.flagged, r.shed
	spans := make([]*Span, len(r.spans))
	copy(spans, r.spans)
	dropped := r.dropped
	r.mu.Unlock()

	t := r.tracer
	var reason string
	switch {
	case shed:
		reason = KeepShed
	case flagged:
		reason = KeepError
	case t.isSlow(root.name, d):
		reason = KeepSlow
	case headKeep(r.traceID, t.headEvery):
		reason = KeepHead
	default:
		t.store.noteSampledOut()
		return
	}

	td := &TraceData{
		TraceID:    r.traceID,
		Root:       root.name,
		Reason:     reason,
		Start:      root.start,
		DurationMs: float64(d) / float64(time.Millisecond),
		Dropped:    dropped,
		Spans:      make([]SpanData, 0, len(spans)),
	}
	for _, sp := range spans {
		td.Spans = append(td.Spans, sp.data())
	}
	t.store.offer(td)
}

// data snapshots the span for storage.
func (s *Span) data() SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := SpanData{
		TraceID:  s.rec.traceID,
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Name:     s.name,
		Tier:     s.tier,
		Start:    s.start,
		Error:    s.errMsg,
		Shed:     s.shed,
		Link:     s.link,
	}
	if s.ended {
		sd.DurationMs = float64(s.end.Sub(s.start)) / float64(time.Millisecond)
	} else {
		sd.Unfinished = true
	}
	if len(s.attrs) > 0 {
		sd.Attrs = append([]Attr(nil), s.attrs...)
	}
	return sd
}

// headKeep is the deterministic head-sampling decision: a hash of the
// trace ID, so every tier of a stitched trace keeps or drops together.
func headKeep(traceID string, every uint64) bool {
	if every <= 1 {
		return true
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(traceID))
	return h.Sum64()%every == 0
}

// Inject writes the current span's identity into outbound request
// headers. No-op on an untraced context.
func Inject(ctx context.Context, h http.Header) {
	sp := SpanFromContext(ctx)
	if sp == nil {
		return
	}
	h.Set(HeaderTraceID, sp.rec.traceID)
	h.Set(HeaderSpanID, sp.spanID)
}

// Extract reads and validates a trace identity from inbound request
// headers. Malformed or absent headers return ok=false; the server
// then roots a fresh trace rather than propagating garbage.
func Extract(h http.Header) (traceID, spanID string, ok bool) {
	t, s := h.Get(HeaderTraceID), h.Get(HeaderSpanID)
	if !ValidTraceID(t) || !ValidSpanID(s) {
		return "", "", false
	}
	return t, s, true
}

// ValidTraceID reports whether s is a well-formed trace ID: exactly 32
// lowercase hex characters.
func ValidTraceID(s string) bool { return validHex(s, traceIDLen) }

// ValidSpanID reports whether s is a well-formed span ID: exactly 16
// lowercase hex characters.
func ValidSpanID(s string) bool { return validHex(s, spanIDLen) }

func validHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

const hexDigits = "0123456789abcdef"

// newTraceID / newSpanID draw from the shared math/rand/v2 generator:
// IDs are correlation handles, not secrets, and the goroutine-sharded
// global PRNG keeps span start off the syscall path — the reason
// tracing stays affordable on microsecond-scale snapshot reads.
func newTraceID() string {
	var b [traceIDLen]byte
	putHex64(b[:16], rand.Uint64())
	putHex64(b[16:], rand.Uint64())
	return string(b[:])
}

func newSpanID() string {
	var b [spanIDLen]byte
	putHex64(b[:], rand.Uint64())
	return string(b[:])
}

func putHex64(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}
