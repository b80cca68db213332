package edge

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsr/internal/index"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// TestBuggyWriterCannotReachClients plays a caller that breaks the
// read-only contract of store.Store on each tier: it flips a byte in
// the very slice a cache's Get hands out, so the stored value itself is
// corrupted. What keeps clients safe is the hash every read runs, not a
// copy: the tier's next read detects the flip and heals — the edge by
// pulling through again, the origin by re-sanitizing — and a client
// reading a flipped entry over HTTP never accepts it.
func TestBuggyWriterCannotReachClients(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup returns the tier's handler, its package cache and the
		// cache key of "app", a buffered read of "app" through the tier,
		// and a check that the read after the flip took the healing path.
		setup func(t *testing.T, w *edgeWorld) (h http.Handler, cache *store.Mem, key string, read func() ([]byte, error), healed func(t *testing.T))
	}{
		{
			name: "edge",
			setup: func(t *testing.T, w *edgeWorld) (http.Handler, *store.Mem, string, func() ([]byte, error), func(*testing.T)) {
				// The edge pulls over HTTP, so its cache holds bytes of
				// its own, not a view of the origin's store.
				origin := httptest.NewServer(tsr.Handler(w.svc))
				t.Cleanup(origin.Close)
				cache := store.NewMem()
				rep := &Replica{RepoID: w.tenant.ID, Cache: cache, TrustRing: w.trust(),
					Origin: &tsr.Client{BaseURL: origin.URL, RepoID: w.tenant.ID, HTTPClient: origin.Client()}}
				if err := rep.SyncCtx(context.Background()); err != nil {
					t.Fatal(err)
				}
				if _, err := rep.FetchPackageCtx(context.Background(), "app"); err != nil {
					t.Fatal(err)
				}
				entry, err := rep.resolveEntry("app")
				if err != nil {
					t.Fatal(err)
				}
				pulls := rep.Stats().OriginPackages
				read := func() ([]byte, error) { return rep.FetchPackageCtx(context.Background(), "app") }
				healed := func(t *testing.T) {
					if got := rep.Stats().OriginPackages - pulls; got != 1 {
						t.Fatalf("origin pulls after the flip = %d, want 1", got)
					}
				}
				return Handler(map[string]*Replica{w.tenant.ID: rep}, "edge-buggy"), cache, cacheKey(entry.Hash), read, healed
			},
		},
		{
			name: "origin",
			setup: func(t *testing.T, w *edgeWorld) (http.Handler, *store.Mem, string, func() ([]byte, error), func(*testing.T)) {
				var key string
				_ = w.store.Iterate(func(info store.Info) bool {
					if strings.HasPrefix(info.Key, w.tenant.ID+"/san/app@") {
						key = info.Key
					}
					return key == ""
				})
				if key == "" {
					t.Fatal("no sanitized-cache entry for app")
				}
				var from tsr.ServedFrom
				read := func() ([]byte, error) {
					raw, res, err := w.tenant.FetchPackageTracedCtx(context.Background(), "app")
					if err == nil {
						from = res.From
					}
					return raw, err
				}
				healed := func(t *testing.T) {
					if from == tsr.ServedSanitizedCache {
						t.Fatalf("read after the flip was served from the sanitized cache, want the re-sanitize path")
					}
				}
				return tsr.Handler(w.svc), w.store, key, read, healed
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newEdgeWorld(t)
			h, cache, key, read, healed := tc.setup(t, w)
			signed, err := w.tenant.FetchIndex()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := index.Decode(signed.Raw)
			if err != nil {
				t.Fatal(err)
			}
			entry, err := ix.Lookup("app")
			if err != nil {
				t.Fatal(err)
			}

			// The buggy writer: a byte flipped in place in a Get result.
			flip := func() {
				t.Helper()
				view, err := cache.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				view[len(view)/2] ^= 0xFF
				if stored, err := cache.Get(key); err != nil || entry.Matches(stored) {
					t.Fatal("the flip did not reach the stored value: Get no longer hands out a view")
				}
			}

			// The tier's next read detects the flip, heals and serves the
			// signed bytes.
			flip()
			raw, err := read()
			if err != nil {
				t.Fatal(err)
			}
			if !entry.Matches(raw) {
				t.Fatal("tier served bytes that do not match the signed entry")
			}
			healed(t)

			// A client reading the tier over HTTP verifies the body
			// against the index: it gets an error or the signed bytes,
			// never the flipped ones.
			flip()
			srv := httptest.NewServer(h)
			defer srv.Close()
			client := &tsr.Client{BaseURL: srv.URL, RepoID: w.tenant.ID, HTTPClient: srv.Client()}
			if got, err := client.FetchPackage("app"); err == nil && !entry.Matches(got) {
				t.Fatal("a client accepted bytes that do not match the signed entry")
			}
			got, err := client.FetchPackage("app")
			if err != nil || !entry.Matches(got) {
				t.Fatalf("client fetch after healing: err %v", err)
			}
		})
	}
}
