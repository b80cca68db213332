package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"time"

	"tsr/internal/apk"
	"tsr/internal/edge"
	"tsr/internal/enclave"
	"tsr/internal/flight"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/obs"
	"tsr/internal/osimage"
	"tsr/internal/pkgmgr"
	"tsr/internal/quorum"
	"tsr/internal/ring"
	"tsr/internal/sanitize"
	"tsr/internal/sched"
	"tsr/internal/script"
	"tsr/internal/store"
	"tsr/internal/tpm"
	"tsr/internal/trace"
	"tsr/internal/tsr"
)

// Direct layer calls: each public function a workload leans on, timed
// on that workload's own data (its index, its packages) after the
// traced window, from outside the program. A value is the median of up
// to layerCalls calls, fewer when a call is slow enough to exhaust
// layerBudget (never fewer than layerMinCalls). The smoke test lowers
// the counts.
var (
	layerCalls    = 30
	layerMinCalls = 5
)

const layerBudget = 200 * time.Millisecond

// layerSet collects the direct-call metrics.
type layerSet struct {
	values map[string]measurement
	err    error
}

// timed records the median duration of fn in the given unit.
func (l *layerSet) timed(name string, per time.Duration, fn func() error) {
	var ds []float64
	start := time.Now()
	for i := 0; i < layerCalls && (i < layerMinCalls || time.Since(start) < layerBudget); i++ {
		t := time.Now()
		if err := fn(); err != nil {
			l.fail(name, err)
			return
		}
		ds = append(ds, float64(time.Since(t))/float64(per))
	}
	l.values[name] = measurement{Value: median(ds), Samples: len(ds)}
}

// rate records throughput in MB/s of fn moving n bytes per call.
func (l *layerSet) rate(name string, n int, fn func() error) {
	l.timed(name, time.Second, fn)
	if m := l.values[name]; m.Value > 0 {
		m.Value = float64(n) / 1e6 / m.Value
		l.values[name] = m
	}
}

// batchNs is the per-call cost in ns of something too cheap to time
// singly: the median over layerCalls batches.
func batchNs(fn func()) float64 {
	const batch = 2000
	var ds []float64
	for i := 0; i < layerCalls; i++ {
		t := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		ds = append(ds, float64(time.Since(t))/batch)
	}
	return median(ds)
}

// each records the median of one first-time call per item (a cold
// miss, a first install): the thing measured happens once per item.
func (l *layerSet) each(name string, per time.Duration, n int, fn func(i int) error) {
	var ds []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			l.fail(name, err)
			return
		}
		ds = append(ds, float64(time.Since(t))/float64(per))
	}
	l.values[name] = measurement{Value: median(ds), Samples: len(ds)}
}

func (l *layerSet) count(name string, v float64) { l.values[name] = measurement{Value: v} }

func (l *layerSet) fail(name string, err error) {
	if l.err == nil {
		l.err = fmt.Errorf("layer call %s: %w", name, err)
	}
}

// nopWriter is a ResponseWriter that keeps nothing, so handler timings
// are the handler's.
type nopWriter struct {
	h      http.Header
	n      int
	status int
}

func newNopWriter() *nopWriter                   { return &nopWriter{h: make(http.Header)} }
func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nopWriter) WriteHeader(status int)      { w.status = status }

// serve runs one GET through h without a socket and checks the status.
func serve(ctx context.Context, h http.Handler, want int, path string, headers ...string) error {
	req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	w := newNopWriter()
	h.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status != want {
		return fmt.Errorf("GET %s: HTTP %d, want %d", path, w.status, want)
	}
	return nil
}

// layerCallsOn runs every direct layer call against world w, which the
// traced window has just finished with.
func layerCallsOn(ctx context.Context, w *world, outDir string) (map[string]measurement, error) {
	l := &layerSet{values: make(map[string]measurement)}
	tenant, id := w.tenant, w.tenant.ID
	layerKey := keys.Shared.MustGet("bench-layer-key")
	distroRing := keys.NewRing(w.distro.Public())

	// --- the data: the workload's index and packages ---------------------
	prevSigned, prevIx, err := w.servedIndex()
	if err != nil {
		return nil, err
	}
	prevETag := prevSigned.ETag()
	bySize := append([]index.Entry(nil), prevIx.Entries...)
	sort.SliceStable(bySize, func(a, b int) bool { return bySize[a].Size < bySize[b].Size })
	small, mid, large := bySize[0], bySize[len(bySize)/2], bySize[len(bySize)-1]
	largeBody, err := tenant.FetchPackage(large.Name)
	if err != nil {
		return nil, err
	}
	manyFiles := large.Name
	for name, spec := range w.specs {
		if _, err := prevIx.Lookup(name); err == nil && spec.FileCount > w.specs[manyFiles].FileCount {
			manyFiles = name
		}
	}
	if len(w.probes) > 0 {
		manyFiles = w.probes[0] // more files than any capped spec of the wide catalog
	}
	rawOf := func(name string) []byte {
		raw, err := w.upstream.Fetch(name)
		if err != nil {
			l.fail("upstream fetch "+name, err)
		}
		return raw
	}

	// --- edge: replicas synced in-process from the tenant -----------------
	// Five replicas so the one-shot syncs (full, then delta after the
	// bump below) have a median to take.
	reps := make([]*edge.Replica, 5)
	l.each("edge.sync_full_ms", time.Millisecond, len(reps), func(i int) error {
		reps[i] = &edge.Replica{RepoID: id, Origin: tenant}
		return reps[i].SyncCtx(ctx)
	})
	rep := reps[0]
	l.each("edge.pull_miss_ms", time.Millisecond, min(layerCalls, len(bySize)), func(i int) error {
		_, err := rep.FetchPackageCtx(ctx, bySize[len(bySize)-1-i].Name)
		return err
	})

	// One more upstream release, so there is a previous generation to
	// delta from and a superseded probe to pull by changed chunks.
	bumped := w.probes
	if len(bumped) == 0 {
		bumped = []string{mid.Name}
	}
	for _, name := range bumped {
		if _, err := rep.FetchPackageCtx(ctx, name); err != nil {
			return nil, err
		}
	}
	if err := w.bump(append(append([]string(nil), bumped...), w.fillers[:min(4, len(w.fillers))]...)); err != nil {
		return nil, err
	}
	if _, err := w.refresh(ctx); err != nil {
		return nil, err
	}
	signed, ix, err := w.servedIndex()
	if err != nil {
		return nil, err
	}
	etag := signed.ETag()
	l.each("edge.sync_delta_ms", time.Millisecond, len(reps), func(i int) error { return reps[i].SyncCtx(ctx) })
	l.timed("edge.sync_noop_ms", time.Millisecond, func() error { return rep.SyncCtx(ctx) })
	before := rep.Stats()
	l.each("edge.diff_pull_ms", time.Millisecond, len(bumped), func(i int) error {
		_, err := rep.FetchPackageCtx(ctx, bumped[i])
		return err
	})
	after := rep.Stats()
	l.count("edge.diff_bytes_reused", float64(after.DiffBytesReused-before.DiffBytesReused)/float64(len(bumped)))
	l.count("edge.diff_bytes_fetched", float64(after.DiffBytesFetched-before.DiffBytesFetched)/float64(len(bumped)))

	// --- index codec and delta ------------------------------------------------
	l.count("index.entries", float64(len(ix.Entries)))
	l.count("index.bytes", float64(len(signed.Raw)))
	l.timed("index.encode_ms", time.Millisecond, func() error { ix.Encode(); return nil })
	l.timed("index.decode_ms", time.Millisecond, func() error { _, err := index.Decode(signed.Raw); return err })
	l.timed("index.sign_ms", time.Millisecond, func() error { _, err := index.Sign(ix, layerKey); return err })
	l.timed("index.verify_ms", time.Millisecond, func() error { _, err := signed.Verify(w.ring); return err })
	l.timed("index.signed_clone_ms", time.Millisecond, func() error { signed.Clone(); return nil })
	var delta *index.Delta
	l.timed("index.compute_delta_ms", time.Millisecond, func() (err error) {
		delta, err = index.ComputeDelta(prevETag, prevIx, signed, ix)
		return err
	})
	if l.err != nil {
		return nil, l.err
	}
	l.timed("index.delta_apply_ms", time.Millisecond, func() error { _, _, err := delta.Apply(prevIx); return err })
	l.count("index.delta_bytes", float64(len(delta.Encode())))

	// --- index serving: both handler copies, no socket --------------------
	gz := httptest.NewRequest(http.MethodGet, "/", nil)
	gz.Header.Set("Accept-Encoding", "gzip")
	var gzBytes int
	l.timed("tsr.write_negotiated_gz_ms", time.Millisecond, func() error {
		rw := newNopWriter()
		tsr.WriteNegotiated(rw, gz, signed.Raw)
		gzBytes = rw.n
		return nil
	})
	l.count("tsr.gzip_ratio", float64(gzBytes)/float64(len(signed.Raw)))
	l.timed("tsr.fetch_index_tagged_ms", time.Millisecond, func() error { _, _, err := tenant.FetchIndexTaggedCtx(ctx); return err })
	l.timed("tsr.fetch_index_delta_ms", time.Millisecond, func() error { _, err := tenant.FetchIndexDeltaCtx(ctx, prevETag); return err })
	base := "/repos/" + id
	deltaPath := base + "/index/delta?since=" + url.QueryEscape(prevETag)
	for _, tier := range []struct {
		name string
		h    http.Handler
	}{
		{"tsr", tsr.Handler(w.svc)},
		{"edge", edge.Handler(map[string]*edge.Replica{id: rep}, "bench-layer")},
	} {
		h := tier.h
		l.timed(tier.name+".handler_index_304_us", time.Microsecond, func() error {
			return serve(ctx, h, http.StatusNotModified, base+"/index", "If-None-Match", etag)
		})
		l.timed(tier.name+".handler_index_gz_ms", time.Millisecond, func() error {
			return serve(ctx, h, http.StatusOK, base+"/index", "Accept-Encoding", "gzip")
		})
		l.timed(tier.name+".handler_delta_ms", time.Millisecond, func() error {
			return serve(ctx, h, http.StatusOK, deltaPath, "Accept-Encoding", "gzip")
		})
		l.timed(tier.name+".handler_package_ms", time.Millisecond, func() error {
			return serve(ctx, h, http.StatusOK, base+"/packages/"+large.Name)
		})
	}

	// --- package serving ------------------------------------------------------
	l.rate("tsr.verified_reader_mb_per_s", len(largeBody), func() error {
		_, err := io.Copy(io.Discard, tsr.NewVerifiedReader(io.NopCloser(bytes.NewReader(largeBody)), large.Hash, func() {}))
		return err
	})
	l.timed("tsr.open_package_us", time.Microsecond, func() error {
		ps, err := tenant.OpenPackageCtx(ctx, large.Name)
		if err != nil {
			return err
		}
		return ps.Close()
	})
	l.timed("tsr.fetch_package_range_us", time.Microsecond, func() error {
		_, err := tenant.FetchPackageRangeCtx(ctx, large.Name, 0, min(rangeLen, large.Size))
		return err
	})
	// Manifests are memoised per content hash, so "first" is one call
	// per package, smallest first: the workload and the pulls above
	// asked for the large ones already.
	l.each("tsr.chunk_manifest_first_ms", time.Millisecond, min(layerCalls, len(bySize)), func(i int) error {
		_, err := tenant.FetchChunkManifestCtx(ctx, bySize[i].Name)
		return err
	})
	l.timed("tsr.chunk_manifest_repeat_us", time.Microsecond, func() error {
		_, err := tenant.FetchChunkManifestCtx(ctx, small.Name)
		return err
	})
	l.rate("store.build_manifest_mb_per_s", len(largeBody), func() error { store.BuildManifest(largeBody); return nil })

	// --- stores -------------------------------------------------------------------
	mem := store.NewMem()
	l.timed("store.mem_put_us", time.Microsecond, func() error { return mem.Put("pkg", largeBody) })
	l.timed("store.mem_get_us", time.Microsecond, func() error { _, err := mem.Get("pkg"); return err })
	dir, err := os.MkdirTemp(outDir, "layer-fs-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fs, err := store.OpenFS(dir, store.FSOptions{})
	if err != nil {
		return nil, err
	}
	l.timed("store.fs_put_ms", time.Millisecond, func() error { return fs.Put("pkg", largeBody) })
	l.timed("store.fs_get_ms", time.Millisecond, func() error { _, err := fs.Get("pkg"); return err })
	l.rate("store.fs_open_mb_per_s", len(largeBody), func() error {
		rc, _, err := fs.Open("pkg")
		if err != nil {
			return err
		}
		defer rc.Close()
		_, err = io.Copy(io.Discard, rc)
		return err
	})
	journal, err := store.OpenJournal(fs, "journal/")
	if err != nil {
		return nil, err
	}
	l.timed("store.journal_append_ms", time.Millisecond, func() error {
		seq, err := journal.Append(largeBody[:min(4096, len(largeBody))])
		if err != nil {
			return err
		}
		return journal.Commit(seq)
	})
	l.timed("tsr.checkpoint_ms", time.Millisecond, tenant.Checkpoint)

	// --- sanitization and its parts ---------------------------------------------
	san := &sanitize.Sanitizer{Plan: tenant.Plan(), TrustRing: distroRing, SignKey: layerKey, EPC: enclave.DefaultCostModel()}
	sanitizeOf := func(raw []byte) func() error {
		return func() error { _, err := san.Sanitize(raw); return err }
	}
	largeRaw := rawOf(large.Name)
	l.timed("sanitize.small_pkg_ms", time.Millisecond, sanitizeOf(rawOf(small.Name)))
	l.timed("sanitize.manyfiles_pkg_ms", time.Millisecond, sanitizeOf(rawOf(manyFiles)))
	l.rate("sanitize.large_pkg_mb_per_s", len(largeRaw), sanitizeOf(largeRaw))
	var decoded []*apk.Package
	scriptSrc := ""
	for _, e := range w.upstream.Index().Entries {
		p, err := apk.Decode(rawOf(e.Name))
		if err != nil {
			return nil, err
		}
		decoded = append(decoded, p)
		if src := p.Scripts["post-install"]; len(src) > len(scriptSrc) {
			scriptSrc = src
		}
	}
	l.timed("sanitize.build_plan_ms", time.Millisecond, func() error {
		_, err := sanitize.BuildPlan(&sanitize.SliceSource{Packages: decoded}, w.initCfg, layerKey)
		return err
	})
	l.timed("script.parse_classify_us", time.Microsecond, func() error {
		s, err := script.Parse(scriptSrc)
		if err == nil {
			script.Classify(s)
		}
		return err
	})
	largePkg, err := apk.Decode(largeRaw)
	if err != nil {
		return nil, err
	}
	l.rate("apk.encode_mb_per_s", len(largeRaw), func() error { _, err := apk.Encode(largePkg); return err })
	l.rate("apk.decode_mb_per_s", len(largeRaw), func() error { _, err := apk.Decode(largeRaw); return err })
	l.timed("apk.verify_ms", time.Millisecond, func() error { _, _, err := apk.VerifyRaw(largeRaw, distroRing); return err })
	digest := largeBody[:32]
	var sig []byte
	l.timed("keys.sign_ms", time.Millisecond, func() (err error) { sig, err = layerKey.Sign(digest); return err })
	l.timed("keys.verify_us", time.Microsecond, func() error { return layerKey.Public().Verify(digest, sig) })
	var sealed []byte
	l.rate("enclave.seal_mb_per_s", len(largeBody), func() (err error) { sealed, err = w.svc.Seal(largeBody); return err })
	l.rate("enclave.unseal_mb_per_s", len(largeBody), func() error { _, err := w.svc.Unseal(sealed); return err })
	counter := tpm.New(layerKey)
	l.timed("tpm.increment_us", time.Microsecond, func() error { counter.IncrementCounter(1); return nil })
	reader := &quorum.Reader{
		Local: netsim.Europe, Link: netsim.DataCenterLinkModel(netsim.NewRNG(w.seed)),
		Clock: netsim.NewVirtualClock(time.Time{}), TrustRing: distroRing,
	}
	for host, m := range w.mirrors {
		reader.Members = append(reader.Members, quorum.Member{Host: host, Continent: netsim.Europe, Source: m})
	}
	sort.Slice(reader.Members, func(a, b int) bool { return reader.Members[a].Host < reader.Members[b].Host })
	l.timed("quorum.read_cpu_ms", time.Millisecond, func() error { _, err := reader.Read(); return err })

	// --- the client side ------------------------------------------------------------
	fc := &edge.FailoverClient{
		TrustRing: w.ring,
		Endpoints: []edge.Endpoint{{Name: "edge", Fetcher: rep}, {Name: "origin", Fetcher: tenant}},
		PkgCache:  store.NewMem(),
	}
	l.timed("edge.failover_index_ms", time.Millisecond, func() error { _, err := fc.FetchIndexCtx(ctx); return err })
	l.timed("edge.failover_package_ms", time.Millisecond, func() error { _, err := fc.FetchPackageCtx(ctx, large.Name); return err })
	img, err := osimage.New(keys.Shared.MustGet("bench-os-ak"), w.initCfg)
	if err != nil {
		return nil, err
	}
	mgr := pkgmgr.New(img, fc, w.ring, w.ring)
	l.timed("pkgmgr.refresh_ms", time.Millisecond, mgr.Refresh)
	var leaves []string
	for _, e := range ix.Entries {
		if len(e.Depends) == 0 && len(leaves) < layerCalls {
			leaves = append(leaves, e.Name)
		}
	}
	var installs []float64
	for _, name := range leaves {
		r, err := mgr.Install(name)
		if err != nil {
			l.fail("pkgmgr.install_cpu_ms", fmt.Errorf("%s: %w", name, err))
			break
		}
		installs = append(installs, ms(r.Total()))
	}
	l.values["pkgmgr.install_cpu_ms"] = measurement{Value: median(installs), Samples: len(installs)}

	// --- middleware -----------------------------------------------------------------
	empty := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rw := newNopWriter()
	through := func(h http.Handler) func() { return func() { h.ServeHTTP(rw, req) } }
	bare := batchNs(through(empty))
	plain := obs.New(obs.Options{MaxInflight: originMaxInflight}).Wrap(empty)
	l.count("obs.wrap_overhead_ns", batchNs(through(plain))-bare)
	keepAll := obs.New(obs.Options{MaxInflight: originMaxInflight, Tracer: trace.NewTracer(trace.Config{Tier: "origin", HeadEvery: 1})}).Wrap(empty)
	l.count("obs.wrap_traced_overhead_ns", batchNs(through(keepAll))-bare)
	sampled := obs.New(obs.Options{MaxInflight: originMaxInflight, Tracer: trace.NewTracer(trace.Config{Tier: "origin"})}).Wrap(empty)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const allocCalls = 5000
	for i := 0; i < allocCalls; i++ {
		sampled.ServeHTTP(rw, req)
	}
	runtime.ReadMemStats(&m1)
	l.count("obs.wrap_allocs", float64(m1.Mallocs-m0.Mallocs)/allocCalls)
	tctx := trace.NewContext(ctx, trace.NewTracer(trace.Config{Tier: "origin"}))
	l.count("trace.span_ns", batchNs(func() {
		_, sp := trace.Start(tctx, "bench.span")
		sp.End()
	}))
	var group flight.Group[int]
	l.count("flight.do_ns", batchNs(func() { _, _, _ = group.Do("key", func() (int, error) { return 1, nil }) }))
	admit := sched.New(sched.Config{Workers: refreshWorkers, MaxActive: schedMaxActive})
	l.timed("sched.admit_us", time.Microsecond, func() error {
		return admit.Run(ctx, id, sched.Interactive, func(context.Context, *sched.Grant) error { return nil })
	})
	shards := ring.New(0, "http://origin-0", "http://origin-1", "http://origin-2", "http://origin-3")
	l.count("ring.owners_ns", batchNs(func() { shards.Owners(id, 2) }))
	srv, err := serveLoopback(empty)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Timeout: 10 * time.Second, Transport: tr}
	l.timed("http.loopback_rtt_us", time.Microsecond, func() error {
		r, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.url+"/", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(r)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return err
	})
	return l.values, l.err
}
