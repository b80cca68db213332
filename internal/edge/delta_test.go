package edge

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"tsr/internal/index"
)

// TestEdgeServesIndexDelta verifies the edge's GET /index/delta: a
// downstream holding a retained generation gets a delta that
// reconstructs the current signed index byte-for-byte; the current
// generation answers 304; an unknown base answers 404 (full-fetch
// fallback).
func TestEdgeServesIndexDelta(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: "r", Origin: w.tenant, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	etag1 := rep.ETag()
	signed1 := mustSigned(t, rep)
	ix1, err := index.Decode(signed1.Raw)
	if err != nil {
		t.Fatal(err)
	}
	w.update(t, "app", "2.0-r0")
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	etag2 := rep.ETag()
	handler := Handler(map[string]*Replica{"r": rep}, "delta-edge")

	get := func(since string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		target := "/repos/r/index/delta?since=" + url.QueryEscape(since)
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec
	}

	// Delta from the retained base generation.
	rec := get(etag1)
	if rec.Code != http.StatusOK {
		t.Fatalf("delta from gen-1: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	d, err := index.DecodeDelta(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	signed, ix, err := d.Apply(ix1)
	if err != nil {
		t.Fatal(err)
	}
	if signed.ETag() != etag2 {
		t.Fatalf("applied delta yields etag %s, want %s", signed.ETag(), etag2)
	}
	if _, err := ix.Lookup("app"); err != nil {
		t.Fatal(err)
	}

	// Current generation: 304.
	if rec := get(etag2); rec.Code != http.StatusNotModified {
		t.Fatalf("delta from current generation: HTTP %d, want 304", rec.Code)
	}
	// Unknown base: 404 → the client falls back to a full fetch.
	if rec := get(`"deadbeef"`); rec.Code != http.StatusNotFound {
		t.Fatalf("delta from unknown base: HTTP %d, want 404", rec.Code)
	}
	// Missing parameter: 400.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/repos/r/index/delta", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("delta without since: HTTP %d, want 400", rec.Code)
	}

	if s := rep.Stats(); s.DeltaReads < 2 {
		t.Fatalf("DeltaReads = %d, want ≥ 2 (one delta + one 304)", s.DeltaReads)
	}
}

// TestChainedReplicaDeltaSyncs verifies a replica can act as the
// origin of a downstream replica (the Origin interface is complete):
// after the first full sync, the downstream advances via deltas served
// by the upstream edge, not the origin.
func TestChainedReplicaDeltaSyncs(t *testing.T) {
	w := newEdgeWorld(t)
	upstream := &Replica{RepoID: "r", Origin: w.tenant, TrustRing: w.trust()}
	if err := upstream.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	downstream := &Replica{RepoID: "r", Origin: upstream, TrustRing: w.trust()}
	if err := downstream.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := downstream.Stats(); s.FullSyncs != 1 {
		t.Fatalf("first downstream sync: FullSyncs = %d, want 1", s.FullSyncs)
	}

	w.update(t, "lib", "2.0-r0")
	if err := upstream.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := downstream.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := downstream.Stats()
	if s.DeltaSyncs != 1 {
		t.Fatalf("second downstream sync: DeltaSyncs = %d (stats %+v), want 1 — the edge delta endpoint was not used", s.DeltaSyncs, s)
	}
	if up := upstream.Stats(); up.DeltaReads != 1 {
		t.Fatalf("upstream DeltaReads = %d, want 1", up.DeltaReads)
	}
	if downstream.ETag() != upstream.ETag() {
		t.Fatalf("downstream etag %s != upstream %s", downstream.ETag(), upstream.ETag())
	}
	// End to end: the downstream serves the new package, pulled through
	// the chain.
	raw, err := downstream.FetchPackageCtx(context.Background(), "lib")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty package through the chain")
	}
}
