package edge

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"tsr/internal/tsr"
)

// The read API conformance suite: one table of requests run against
// BOTH tsr.Handler and edge.Handler. A package manager must be able to
// treat the two tiers interchangeably, so every row asserts the same
// status, headers and body on each — and then that the two responses
// agree with each other, modulo the one tier header each side owns.

// readRow is one request and what any tier must answer.
type readRow struct {
	name        string
	repo        string            // repository id; "" is the ready one
	path        string            // below /repos/{id}
	request     map[string]string // request headers
	wantStatus  int
	wantHeaders map[string]string // exact values; "" means the header must be absent
	wantBodyEq  []byte            // identity (gunzipped) body; nil means unchecked
}

// tierHeaders are the headers a tier owns; everything else must match
// across tiers.
var tierHeaders = map[string]bool{"X-Tsr-Edge": true, "X-Tsr-Served-From": true, "Date": true}

// noValidators are the headers no routed error may carry: a JSON error
// body is not the package, so it must not wear the package's validators.
// (A 416 is not a routed error: it is a protocol answer about the
// current representation and names it.)
var noValidators = []string{"ETag", "Accept-Ranges", "Content-Range"}

func routedError(status int) bool {
	return status >= 400 && status != http.StatusRequestedRangeNotSatisfiable
}

func serve(h http.Handler, repo string, row readRow) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/repos/"+repo+row.path, nil)
	for k, v := range row.request {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// identity returns the response body with any gzip transfer encoding
// removed.
func identity(t *testing.T, rec *httptest.ResponseRecorder) []byte {
	t.Helper()
	if rec.Header().Get("Content-Encoding") != "gzip" {
		return rec.Body.Bytes()
	}
	zr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func checkRow(t *testing.T, row readRow, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != row.wantStatus {
		t.Fatalf("status = %d, want %d (body %q)", rec.Code, row.wantStatus, rec.Body.String())
	}
	for k, want := range row.wantHeaders {
		if got := rec.Header().Get(k); got != want {
			t.Errorf("header %s = %q, want %q", k, got, want)
		}
	}
	if routedError(row.wantStatus) {
		for _, k := range noValidators {
			if got := rec.Header().Get(k); got != "" {
				t.Errorf("error response carries %s: %q", k, got)
			}
		}
	}
	if row.wantBodyEq != nil && !bytes.Equal(identity(t, rec), row.wantBodyEq) {
		t.Errorf("body differs from the expected %d bytes", len(row.wantBodyEq))
	}
}

// failingOrigin syncs like its Origin but cannot deliver packages: every
// pull-through fails.
type failingOrigin struct{ Origin }

func (failingOrigin) FetchPackageCtx(context.Context, string) ([]byte, error) {
	return nil, errors.New("origin unreachable")
}

func TestReadAPIConformance(t *testing.T) {
	w := newEdgeWorld(t)
	w.publish(t, bigEdgePkg("blob", "1.0-r0", 6, 64<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	ready := w.tenant.ID
	rep := &Replica{RepoID: ready, Origin: w.tenant, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	prevTag := rep.ETag()
	// A second generation, so both tiers retain a delta base.
	w.update(t, "app", "2.0-r0")
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Not-ready: a deployed but never refreshed tenant at the origin, a
	// never synced replica at the edge.
	cold, _, _, err := w.svc.DeployPolicy(w.policy)
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name string
		h    http.Handler
	}{
		{"origin", tsr.Handler(w.svc)},
		{"edge", Handler(map[string]*Replica{ready: rep, cold: {RepoID: cold, Origin: w.tenant}}, "conf-edge")},
	}

	signed, tag, err := w.tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	delta, err := w.tenant.FetchIndexDeltaCtx(context.Background(), prevTag)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := w.tenant.FetchPackage("blob")
	if err != nil {
		t.Fatal(err)
	}
	blobTag := entryOf(t, rep, "blob").ETag()
	manifest, err := w.tenant.FetchChunkManifestCtx(context.Background(), "blob")
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest.Chunks) < 2 {
		t.Fatalf("blob cut into %d chunks, want a multi-chunk package", len(manifest.Chunks))
	}
	size := len(blob)
	deltaPath := func(since string) string { return "/index/delta?since=" + url.QueryEscape(since) }
	gz := map[string]string{"Accept-Encoding": "gzip"}
	inm := func(v string) map[string]string { return map[string]string{"If-None-Match": v} }
	packageHeaders := map[string]string{
		"ETag": blobTag, "Accept-Ranges": "bytes", "Cache-Control": "no-cache",
		"Content-Type": "application/octet-stream", "Content-Length": fmt.Sprint(size),
	}

	rows := []readRow{
		// --- index ---
		{name: "index 200 identity", path: "/index", wantStatus: 200, wantBodyEq: signed.Raw, wantHeaders: map[string]string{
			"ETag": tag, "X-Tsr-Key-Name": signed.KeyName, "Cache-Control": "no-cache", "Content-Encoding": "", "Vary": "Accept-Encoding"}},
		{name: "index 200 gzip", path: "/index", request: gz, wantStatus: 200, wantBodyEq: signed.Raw, wantHeaders: map[string]string{
			"ETag": tag, "X-Tsr-Key-Name": signed.KeyName, "Content-Encoding": "gzip"}},
		{name: "index 304 exact", path: "/index", request: inm(tag), wantStatus: 304, wantHeaders: map[string]string{"ETag": tag}},
		{name: "index 304 star", path: "/index", request: inm("*"), wantStatus: 304, wantHeaders: map[string]string{"ETag": tag}},
		{name: "index 304 weak tag in a list", path: "/index", request: inm(`"other", W/` + tag), wantStatus: 304, wantHeaders: map[string]string{"ETag": tag}},
		{name: "index 200 stale tag", path: "/index", request: inm(prevTag), wantStatus: 200, wantBodyEq: signed.Raw},
		// --- delta ---
		{name: "delta 200", path: deltaPath(prevTag), wantStatus: 200, wantBodyEq: delta.Encode(), wantHeaders: map[string]string{"ETag": tag}},
		{name: "delta 200 gzip", path: deltaPath(prevTag), request: gz, wantStatus: 200, wantBodyEq: delta.Encode(), wantHeaders: map[string]string{"ETag": tag}},
		{name: "delta 304 since is current", path: deltaPath(tag), wantStatus: 304, wantHeaders: map[string]string{"ETag": tag}},
		{name: "delta 404 outside the window", path: deltaPath(`"feedface"`), wantStatus: 404},
		{name: "delta 400 without since", path: "/index/delta", wantStatus: 400},
		// --- package ---
		{name: "package 200", path: "/packages/blob", wantStatus: 200, wantBodyEq: blob, wantHeaders: packageHeaders},
		{name: "package 304", path: "/packages/blob", request: inm(blobTag), wantStatus: 304, wantHeaders: map[string]string{"ETag": blobTag}},
		{name: "package 206", path: "/packages/blob", request: map[string]string{"Range": "bytes=10-109", "If-Range": blobTag},
			wantStatus: 206, wantBodyEq: blob[10:110], wantHeaders: map[string]string{
				"ETag": blobTag, "Content-Range": fmt.Sprintf("bytes 10-109/%d", size), "Content-Length": "100", "Accept-Ranges": "bytes"}},
		{name: "package 206 suffix", path: "/packages/blob", request: map[string]string{"Range": "bytes=-7"},
			wantStatus: 206, wantBodyEq: blob[size-7:], wantHeaders: map[string]string{"ETag": blobTag}},
		{name: "package If-Range mismatch serves 200", path: "/packages/blob", request: map[string]string{"Range": "bytes=10-109", "If-Range": `"stale"`},
			wantStatus: 200, wantBodyEq: blob, wantHeaders: map[string]string{"ETag": blobTag, "Content-Range": ""}},
		{name: "package 416", path: "/packages/blob", request: map[string]string{"Range": fmt.Sprintf("bytes=%d-", size+10)},
			wantStatus: 416, wantHeaders: map[string]string{"Content-Range": fmt.Sprintf("bytes */%d", size)}},
		{name: "package If-None-Match beats Range", path: "/packages/blob", request: map[string]string{"Range": "bytes=10-109", "If-None-Match": blobTag},
			wantStatus: 304, wantHeaders: map[string]string{"ETag": blobTag, "Content-Range": ""}},
		{name: "package 404", path: "/packages/nope", wantStatus: 404},
		{name: "package 404 under Range", path: "/packages/nope", request: map[string]string{"Range": "bytes=0-9"}, wantStatus: 404},
		// --- chunks ---
		{name: "chunks 200", path: "/packages/blob/chunks", wantStatus: 200, wantBodyEq: tsr.EncodeChunkManifest("blob", manifest),
			wantHeaders: map[string]string{"ETag": blobTag, "Content-Type": "application/json"}},
		{name: "chunks 200 gzip", path: "/packages/blob/chunks", request: gz, wantStatus: 200, wantBodyEq: tsr.EncodeChunkManifest("blob", manifest),
			wantHeaders: map[string]string{"ETag": blobTag}},
		{name: "chunks 304", path: "/packages/blob/chunks", request: inm(blobTag), wantStatus: 304, wantHeaders: map[string]string{"ETag": blobTag}},
		{name: "chunks 404", path: "/packages/nope/chunks", wantStatus: 404},
	}
	// --- common: unknown repository 404, not-ready 503, on every route ---
	// Rows are named for the route, not its path: the delta path carries
	// the index ETag, which changes from run to run.
	for _, route := range []struct{ name, path string }{
		{"/index", "/index"},
		{"/index/delta?since=current", deltaPath(tag)},
		{"/packages/blob", "/packages/blob"},
		{"/packages/blob/chunks", "/packages/blob/chunks"},
	} {
		rows = append(rows,
			readRow{name: "unknown repo " + route.name, repo: "r0000000000000000", path: route.path, wantStatus: 404},
			readRow{name: "not ready " + route.name, repo: cold, path: route.path, wantStatus: 503},
			readRow{name: "not ready, revalidating " + route.name, repo: cold, path: route.path, request: inm("*"), wantStatus: 503},
		)
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			repo := row.repo
			if repo == "" {
				repo = ready
			}
			var recs []*httptest.ResponseRecorder
			for _, tier := range tiers {
				rec := serve(tier.h, repo, row)
				t.Run(tier.name, func(t *testing.T) { checkRow(t, row, rec) })
				recs = append(recs, rec)
			}
			origin, edge := recs[0], recs[1]
			if got := edge.Header().Get("X-Tsr-Edge"); got != "conf-edge" {
				t.Errorf("edge X-Tsr-Edge = %q", got)
			}
			if got := origin.Header().Get("X-Tsr-Edge"); got != "" {
				t.Errorf("origin sent X-Tsr-Edge = %q", got)
			}
			// Error bodies name the tier's own sentinel, so only their
			// shape must agree; everything else agrees byte for byte.
			isError := routedError(row.wantStatus)
			for _, pair := range [][2]*httptest.ResponseRecorder{{origin, edge}, {edge, origin}} {
				for k, v := range pair[0].Header() {
					if tierHeaders[k] || (isError && k == "Content-Length") {
						continue
					}
					if other := pair[1].Header().Values(k); fmt.Sprint(v) != fmt.Sprint(other) {
						t.Errorf("header %s differs across tiers: %q vs %q", k, v, other)
					}
				}
			}
			if !isError && !bytes.Equal(origin.Body.Bytes(), edge.Body.Bytes()) {
				t.Errorf("bodies differ across tiers (%d vs %d bytes)", origin.Body.Len(), edge.Body.Len())
			}
		})
	}
}

// TestEdgeFailuresCarryNoValidators covers the rows only an edge has: an
// Offline replica refuses every route — a revalidation included, which
// must not be answered 304 by a replica that would refuse the body — and
// a failed pull-through answers 502 without the package's ETag or
// Accept-Ranges over its JSON error body.
func TestEdgeFailuresCarryNoValidators(t *testing.T) {
	w := newEdgeWorld(t)
	offline := &Replica{RepoID: "off", Origin: w.tenant}
	cut := &Replica{RepoID: "cut", Origin: failingOrigin{w.tenant}}
	for _, rep := range []*Replica{offline, cut} {
		if err := rep.SyncCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	tag := offline.ETag()
	appTag := entryOf(t, offline, "app").ETag()
	offline.SetBehavior(Offline)
	h := Handler(map[string]*Replica{"off": offline, "cut": cut}, "conf-edge")

	var rows []readRow
	// Rows are named for the route, not its path: the delta path carries
	// the index ETag, which changes from run to run.
	for _, route := range []struct{ name, path, tag string }{
		{"/index", "/index", tag},
		{"/index/delta?since=current", "/index/delta?since=" + url.QueryEscape(tag), tag},
		{"/packages/app", "/packages/app", appTag},
		{"/packages/app/chunks", "/packages/app/chunks", appTag},
	} {
		rows = append(rows,
			readRow{name: "offline " + route.name, repo: "off", path: route.path, wantStatus: 503},
			readRow{name: "offline, If-None-Match current " + route.name, repo: "off", path: route.path,
				request: map[string]string{"If-None-Match": route.tag}, wantStatus: 503},
			readRow{name: "offline, If-None-Match * " + route.name, repo: "off", path: route.path,
				request: map[string]string{"If-None-Match": "*"}, wantStatus: 503},
		)
	}
	rows = append(rows,
		readRow{name: "pull-through failure", repo: "cut", path: "/packages/app", wantStatus: 502},
		readRow{name: "pull-through failure under Range", repo: "cut", path: "/packages/app",
			request: map[string]string{"Range": "bytes=0-9"}, wantStatus: 502},
		readRow{name: "pull-through failure building chunks", repo: "cut", path: "/packages/app/chunks", wantStatus: 502},
	)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rec := serve(h, row.repo, row)
			checkRow(t, row, rec)
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Errorf("error Content-Type = %q", got)
			}
		})
	}
}

// TestChunksRevalidationSkipsTheManifest: a /chunks revalidation is
// answered from the resolved entry's ETag, before anything is built —
// no package read, no pull-through, no chunking pass — on both tiers.
func TestChunksRevalidationSkipsTheManifest(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	row := readRow{path: "/packages/app/chunks", request: map[string]string{"If-None-Match": entryOf(t, rep, "app").ETag()}, wantStatus: 304}
	checkRow(t, row, serve(Handler(map[string]*Replica{w.tenant.ID: rep}, "e"), w.tenant.ID, row))
	checkRow(t, row, serve(tsr.Handler(w.svc), w.tenant.ID, row))
	if st := rep.Stats(); st.PackageReads != 0 || st.OriginPackages != 0 {
		t.Errorf("edge read %d packages (%d pulled) to answer a 304", st.PackageReads, st.OriginPackages)
	}
	if st := w.tenant.CacheStats(); st.PackageReads != 0 || st.ManifestReads != 0 {
		t.Errorf("origin read %d packages and built %d manifests to answer a 304", st.PackageReads, st.ManifestReads)
	}
}
