package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"tsr/internal/edge"
	"tsr/internal/index"
	"tsr/internal/quorum"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// Seam spans: the traced run decorates the program's public injection
// points (tsr.Config.Store and Resolve, edge.Replica.Cache and Origin,
// edge.Endpoint.Fetcher, the handlers either side of obs.Wrap, and the
// client transport) and records a span around every call. The program
// is not edited; the end-to-end run interposes none of this.

// span is one recorded call. Times are nanoseconds since the recorder's
// epoch. Parent and Op are filled by link: the traced run drives one
// client, so a span's parent is the innermost span containing it in
// time, and Op is the root span of its tree.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 400_000

type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
	// servedFrom counts origin package responses by X-Tsr-Served-From,
	// read at the handler seam: the program has no counter for serves
	// that had to re-sanitize.
	servedFrom map[string]int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), servedFrom: make(map[string]int64)}
}

// begin opens a span and returns its handle for end; -1 once full.
func (r *recorder) begin(name string) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// link assigns Parent and Op to every finished span.
func (r *recorder) link() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	order := make([]int, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End >= s.Start && s.End != 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := r.spans[order[a]], r.spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End // the longer span is the parent
	})
	var open []int
	for _, i := range order {
		s := &r.spans[i]
		live := open[:0]
		for _, j := range open {
			if r.spans[j].End > s.Start {
				live = append(live, j)
			}
		}
		open = live
		s.Parent, s.Op = -1, i
		for k := len(open) - 1; k >= 0; k-- {
			if p := &r.spans[open[k]]; p.End >= s.End {
				s.Parent, s.Op = open[k], p.Op
				break
			}
		}
		open = append(open, i)
	}
	return r.spans
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover (children of concurrent workers may overlap, so
// the cover is a union of intervals).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < s.Start || s.End == 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var cover, reach int64 = 0, s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if to > from {
				cover += to - from
				reach = to
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - cover)
	}
	return out
}

// writeTrace writes the span file of one traced workload run.
func (r *recorder) writeTrace(path, workload string, seed int64) error {
	spans := r.link()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.dropped, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- store seam ---------------------------------------------------------

// fullStore is every store interface the origin and the edge probe for;
// *store.Mem and *store.FS both provide all of it, and the seam must
// too, or the program would silently take its non-streaming paths.
type fullStore interface {
	store.Store
	store.Streamer
	store.Stater
	store.Iterable
	store.Monitored
	store.Pinner
}

type storeSeam struct {
	next fullStore
	rec  *recorder
	site string // "store.origin" or "store.edge"
}

var (
	_ fullStore = (*storeSeam)(nil)
	_ fullStore = (*store.Mem)(nil)
	_ fullStore = (*store.FS)(nil)
)

func (s *storeSeam) Put(key string, data []byte) error {
	defer s.rec.end(s.rec.begin(s.site + ".put"))
	return s.next.Put(key, data)
}

func (s *storeSeam) Get(key string) ([]byte, error) {
	defer s.rec.end(s.rec.begin(s.site + ".get"))
	return s.next.Get(key)
}

func (s *storeSeam) Delete(key string) error {
	defer s.rec.end(s.rec.begin(s.site + ".delete"))
	return s.next.Delete(key)
}

func (s *storeSeam) Open(key string) (io.ReadCloser, int64, error) {
	defer s.rec.end(s.rec.begin(s.site + ".open"))
	return s.next.Open(key)
}

func (s *storeSeam) Stat(key string) (store.Info, error) {
	defer s.rec.end(s.rec.begin(s.site + ".stat"))
	return s.next.Stat(key)
}

func (s *storeSeam) Iterate(fn func(store.Info) bool) error {
	defer s.rec.end(s.rec.begin(s.site + ".iterate"))
	return s.next.Iterate(fn)
}

func (s *storeSeam) Stats() store.Stats { return s.next.Stats() }
func (s *storeSeam) Pin(prefix string)  { s.next.Pin(prefix) }

// --- upstream client seam -----------------------------------------------

// clientSeam decorates the *tsr.Client an edge replica syncs from
// (edge.Replica.Origin) or a failover client reads through
// (edge.Endpoint.Fetcher). It forwards every method the edge package
// probes for by interface upgrade, in *tsr.Client's shapes — the only
// concrete type behind those injection points in this benchmark. (The
// four-argument FetchPackageRangeCtx shape belongs to in-process
// origins, *tsr.Repo and *edge.Replica, which no workload places behind
// a seam; Go allows one method per name, so a decorator mirrors exactly
// one of the two shapes.)
type clientSeam struct {
	next *tsr.Client
	rec  *recorder
	site string // "client.edge_origin", "client.failover_edge", ...
}

// The edge package's Origin and Fetcher interfaces, plus each optional
// upgrade it probes for (internal/edge/edge.go and wire.go).
var (
	_ edge.Origin  = (*clientSeam)(nil)
	_ edge.Fetcher = (*clientSeam)(nil)
	_ interface {
		FetchIndexTaggedCtx(context.Context) (*index.Signed, string, error)
	} = (*clientSeam)(nil)
	_ interface {
		FetchIndexDeltaCtx(context.Context, string) (*index.Delta, error)
	} = (*clientSeam)(nil)
	_ interface {
		FetchPackageCtx(context.Context, string) ([]byte, error)
	} = (*clientSeam)(nil)
	_ interface {
		FetchChunkManifestCtx(context.Context, string) (*store.ChunkManifest, error)
	} = (*clientSeam)(nil)
	_ interface {
		FetchPackageRangeCtx(context.Context, string, int64, int64, string) ([]byte, error)
	} = (*clientSeam)(nil)
)

func (c *clientSeam) FetchIndexTagged() (*index.Signed, string, error) {
	defer c.rec.end(c.rec.begin(c.site + ".index"))
	return c.next.FetchIndexTagged()
}

func (c *clientSeam) FetchIndexTaggedCtx(ctx context.Context) (*index.Signed, string, error) {
	defer c.rec.end(c.rec.begin(c.site + ".index"))
	return c.next.FetchIndexTaggedCtx(ctx)
}

func (c *clientSeam) FetchIndexDelta(sinceETag string) (*index.Delta, error) {
	defer c.rec.end(c.rec.begin(c.site + ".delta"))
	return c.next.FetchIndexDelta(sinceETag)
}

func (c *clientSeam) FetchIndexDeltaCtx(ctx context.Context, sinceETag string) (*index.Delta, error) {
	defer c.rec.end(c.rec.begin(c.site + ".delta"))
	return c.next.FetchIndexDeltaCtx(ctx, sinceETag)
}

func (c *clientSeam) FetchPackage(name string) ([]byte, error) {
	defer c.rec.end(c.rec.begin(c.site + ".package"))
	return c.next.FetchPackage(name)
}

func (c *clientSeam) FetchPackageCtx(ctx context.Context, name string) ([]byte, error) {
	defer c.rec.end(c.rec.begin(c.site + ".package"))
	return c.next.FetchPackageCtx(ctx, name)
}

func (c *clientSeam) FetchChunkManifest(name string) (*store.ChunkManifest, error) {
	defer c.rec.end(c.rec.begin(c.site + ".chunks"))
	return c.next.FetchChunkManifest(name)
}

func (c *clientSeam) FetchChunkManifestCtx(ctx context.Context, name string) (*store.ChunkManifest, error) {
	defer c.rec.end(c.rec.begin(c.site + ".chunks"))
	return c.next.FetchChunkManifestCtx(ctx, name)
}

func (c *clientSeam) FetchPackageRange(name string, off, length int64) ([]byte, error) {
	defer c.rec.end(c.rec.begin(c.site + ".range"))
	return c.next.FetchPackageRange(name, off, length)
}

func (c *clientSeam) FetchPackageRangeCtx(ctx context.Context, name string, off, length int64, etag string) ([]byte, error) {
	defer c.rec.end(c.rec.begin(c.site + ".range"))
	return c.next.FetchPackageRangeCtx(ctx, name, off, length, etag)
}

// --- mirror seam (tsr.Config.Resolve) -----------------------------------

// mirrorConn is what Resolve hands the origin for one policy mirror.
type mirrorConn interface {
	quorum.Source
	tsr.PackageFetcher
}

type mirrorSeam struct {
	next mirrorConn
	rec  *recorder
}

var _ mirrorConn = (*mirrorSeam)(nil)

func (m *mirrorSeam) FetchIndex() (*index.Signed, error) {
	defer m.rec.end(m.rec.begin("mirror.index"))
	return m.next.FetchIndex()
}

func (m *mirrorSeam) FetchPackage(name string) ([]byte, error) {
	defer m.rec.end(m.rec.begin("mirror.package"))
	return m.next.FetchPackage(name)
}

// --- HTTP seams ---------------------------------------------------------

// transportSeam spans a client round trip up to the response headers;
// with the server's outer handler span as its child, its self time is
// what net/http and loopback cost per request.
type transportSeam struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *transportSeam) RoundTrip(req *http.Request) (*http.Response, error) {
	defer t.rec.end(t.rec.begin("http.transport"))
	return t.next.RoundTrip(req)
}

// seams is the set of decorators a world is built with; the zero value
// interposes nothing. bench_test.go substitutes a tampering store to
// show that wrong bytes fail the run.
type seams struct {
	rec       *recorder
	wrapStore func(site string, s fullStore) fullStore
}

func tracedSeams(rec *recorder) seams {
	return seams{rec: rec, wrapStore: func(site string, s fullStore) fullStore {
		return &storeSeam{next: s, rec: rec, site: site}
	}}
}

func (s seams) store(site string, st fullStore) fullStore {
	if s.wrapStore == nil {
		return st
	}
	return s.wrapStore(site, st)
}

// client returns what edge.Replica.Origin and edge.Endpoint.Fetcher are
// given (an edge.Origin is also an edge.Fetcher).
func (s seams) client(site string, c *tsr.Client) edge.Origin {
	if s.rec == nil {
		return c
	}
	return &clientSeam{next: c, rec: s.rec, site: site}
}

func (s seams) mirror(m mirrorConn) mirrorConn {
	if s.rec == nil {
		return m
	}
	return &mirrorSeam{next: m, rec: s.rec}
}

// handler wraps a server handler outside ("<tier>.http") or inside
// ("<tier>.handler") obs.Wrap, so the difference of the two spans is the
// middleware's cost on the live path.
func (s seams) handler(name string, countServedFrom bool, next http.Handler) http.Handler {
	rec := s.rec
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer rec.end(rec.begin(name))
		next.ServeHTTP(w, r)
		if countServedFrom {
			if from := w.Header().Get("X-Tsr-Served-From"); from != "" {
				rec.mu.Lock()
				rec.servedFrom[from]++
				rec.mu.Unlock()
			}
		}
	})
}

func (s seams) transport(rt http.RoundTripper) http.RoundTripper {
	if s.rec == nil {
		return rt
	}
	return &transportSeam{next: rt, rec: s.rec}
}

// opSpan opens the root span of one load-generator operation.
func (s seams) opSpan(name string) func() {
	if s.rec == nil {
		return func() {}
	}
	i := s.rec.begin(name)
	return func() { s.rec.end(i) }
}
