package tsr

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"tsr/internal/index"
)

// deltaMemoEntries counts the delta forms p's memo has built.
func deltaMemoEntries(p *Published) int {
	n := 0
	for i := range p.wire.deltas {
		if d := &p.wire.deltas[i]; d.raw != nil || d.err != nil {
			n++
		}
	}
	return n
}

// TestWireMemoIsLazyAndFollowsTheGeneration: Publish builds no wire
// form, a same-ETag republish keeps the memo it has, and a new
// generation starts an empty one.
func TestWireMemoIsLazyAndFollowsTheGeneration(t *testing.T) {
	w, r := refreshedWorld(t)
	_, base, err := r.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	advance(t, w, r, "app", "1.1-r0")
	p, err := r.Current()
	if err != nil {
		t.Fatal(err)
	}
	if p.wire.signature != "" || p.wire.indexGz != nil || deltaMemoEntries(p) != 0 {
		t.Fatal("Publish built wire forms no request asked for")
	}
	h := Handler(w.svc)
	prefix := "/repos/" + r.ID + "/index"
	for _, target := range []string{prefix, prefix + "/delta?since=" + url.QueryEscape(base)} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", target, rec.Code)
		}
	}
	if p.wire.signature == "" || deltaMemoEntries(p) != 1 {
		t.Fatalf("after one index and one delta GET: signature %q, %d delta forms", p.wire.signature, deltaMemoEntries(p))
	}

	r.SetCacheMode(CacheOriginalOnly)
	r.mu.Lock()
	r.publishLocked()
	r.mu.Unlock()
	again, err := r.Current()
	if err != nil {
		t.Fatal(err)
	}
	if again == p || again.ETag != p.ETag || again.wire != p.wire {
		t.Fatal("a same-ETag republish dropped the generation's memo")
	}
	advance(t, w, r, "lib", "1.1-r0")
	next, err := r.Current()
	if err != nil {
		t.Fatal(err)
	}
	if next.wire == p.wire || next.wire.signature != "" {
		t.Fatal("a new generation inherited its predecessor's memo")
	}
}

// TestDeltaMemoIgnoresUnknownBases: 10,000 random since= values are all
// answered 404 and none of them takes a memo slot; the memo holds at
// most one form per retained base.
func TestDeltaMemoIgnoresUnknownBases(t *testing.T) {
	w, r := refreshedWorld(t)
	for i := 0; i < index.HistoryWindow+2; i++ {
		advance(t, w, r, "app", fmt.Sprintf("1.%d-r0", i+1))
	}
	p, err := r.Current()
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(w.svc)
	get := func(since string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/repos/"+r.ID+"/index/delta?since="+url.QueryEscape(since), nil))
		return rec.Code
	}
	for _, base := range p.History[:len(p.History)-1] {
		if code := get(base.ETag); code != http.StatusOK {
			t.Fatalf("delta from retained base %s: HTTP %d", base.ETag, code)
		}
	}
	filled := deltaMemoEntries(p)
	if filled != len(p.History)-1 || filled > index.HistoryWindow {
		t.Fatalf("%d delta forms for %d retained bases", filled, len(p.History)-1)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 10000; i++ {
		var since string
		if i%2 == 0 {
			var b [32]byte
			rng.Read(b[:])
			since = fmt.Sprintf(`"%x"`, b)
		} else {
			since = fmt.Sprintf("%x", rng.Int63())
		}
		if code := get(since); code != http.StatusNotFound {
			t.Fatalf("delta since unknown base %s: HTTP %d, want 404", since, code)
		}
	}
	if got := deltaMemoEntries(p); got != filled {
		t.Fatalf("delta memo holds %d forms after the unknown bases, want %d", got, filled)
	}
}
