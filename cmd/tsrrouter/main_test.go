package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"tsr/internal/daemon"
	"tsr/internal/obs"
)

func testLogger() *slog.Logger {
	log, err := obs.NewLogger(io.Discard, "text", "tsrrouter-test")
	if err != nil {
		panic(err)
	}
	return log
}

// stubBackend is a minimal tsrd stand-in that records what reaches it.
type stubBackend struct {
	srv     *httptest.Server
	name    string
	deploys atomic.Int64
	lastID  atomic.Value // string: last ?id= seen on /policies
}

func newStubBackend(name string) *stubBackend {
	b := &stubBackend{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /policies", func(w http.ResponseWriter, r *http.Request) {
		b.deploys.Add(1)
		b.lastID.Store(r.URL.Query().Get("id"))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{
			"repository_id": r.URL.Query().Get("id"), "backend": name,
		})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{"backend": name})
	})
	b.srv = httptest.NewServer(mux)
	return b
}

// twoBackendRouter builds a router over two live stubs.
func twoBackendRouter(t *testing.T) (*daemon.Router, *stubBackend, *stubBackend) {
	t.Helper()
	a, b := newStubBackend("a"), newStubBackend("b")
	t.Cleanup(a.srv.Close)
	t.Cleanup(b.srv.Close)
	rt, err := daemon.NewRouter([]string{a.srv.URL, b.srv.URL}, 0, testLogger())
	if err != nil {
		t.Fatal(err)
	}
	return rt, a, b
}

// byURL maps a node name back to its stub.
func byURL(a, b *stubBackend, node string) *stubBackend {
	if node == a.srv.URL {
		return a
	}
	return b
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := daemon.NewRouter([]string{""}, 0, testLogger()); err == nil {
		t.Fatal("want error for empty backend list")
	}
	if _, err := daemon.NewRouter([]string{"not a url"}, 0, testLogger()); err == nil {
		t.Fatal("want error for relative backend URL")
	}
}

// TestDeployPlacement: the router names the tenant, forwards the
// deploy to the ring owner with ?id= pinned, and tags the response
// with the placement.
func TestDeployPlacement(t *testing.T) {
	rt, a, b := twoBackendRouter(t)
	h := rt.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/policies", strings.NewReader("mirrors: []")))
	if rec.Code != http.StatusOK {
		t.Fatalf("deploy status = %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		RepositoryID string `json:"repository_id"`
		Backend      string `json:"backend"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`^r[0-9a-f]{16}$`).MatchString(resp.RepositoryID) {
		t.Fatalf("router generated id %q, want r + 16 hex digits", resp.RepositoryID)
	}
	owner := rt.Owner(resp.RepositoryID)
	if got := rec.Header().Get("X-Tsr-Backend"); got != owner {
		t.Fatalf("X-Tsr-Backend = %s, ring owner = %s", got, owner)
	}
	served := byURL(a, b, owner)
	if served.deploys.Load() != 1 || served.lastID.Load().(string) != resp.RepositoryID {
		t.Fatalf("owner %s saw deploys=%d lastID=%v, want the pinned id %s",
			served.name, served.deploys.Load(), served.lastID.Load(), resp.RepositoryID)
	}

	// A caller-chosen ?id= is honored verbatim.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/policies?id=rfeedfacefeedface", strings.NewReader("mirrors: []")))
	if rec.Code != http.StatusOK {
		t.Fatalf("deploy status = %d", rec.Code)
	}
	pinnedOwner := byURL(a, b, rt.Owner("rfeedfacefeedface"))
	if pinnedOwner.lastID.Load().(string) != "rfeedfacefeedface" {
		t.Fatalf("pinned id not forwarded to its owner %s", pinnedOwner.name)
	}
}

// TestStatsFanOut: GET /stats aggregates every backend's document
// keyed by backend URL, and reports unreachable backends separately.
func TestStatsFanOut(t *testing.T) {
	rt, a, b := twoBackendRouter(t)
	h := rt.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var doc struct {
		Backends    map[string]json.RawMessage `json:"backends"`
		Unreachable map[string]string          `json:"unreachable"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Backends) != 2 || doc.Backends[a.srv.URL] == nil || doc.Backends[b.srv.URL] == nil {
		t.Fatalf("backends = %v, want both stubs", doc.Backends)
	}

	b.srv.Close()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	doc.Backends, doc.Unreachable = nil, nil
	if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Backends) != 1 || doc.Backends[a.srv.URL] == nil {
		t.Fatalf("backends = %v, want only the live stub", doc.Backends)
	}
	if _, ok := doc.Unreachable[b.srv.URL]; !ok {
		t.Fatalf("unreachable = %v, want the dead stub listed", doc.Unreachable)
	}
}

// TestRingInfo: the operator view lists every node in ring order and
// names the owner of a queried id.
func TestRingInfo(t *testing.T) {
	rt, _, _ := twoBackendRouter(t)
	h := rt.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/ring?id="+url.QueryEscape("r0123456789abcdef"), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ring status = %d", rec.Code)
	}
	var doc struct {
		Nodes []string `json:"nodes"`
		Owner string   `json:"owner"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.Nodes, rt.Nodes()) || len(doc.Nodes) != 2 {
		t.Fatalf("nodes = %v, want %v", doc.Nodes, rt.Nodes())
	}
	if doc.Owner != rt.Owner("r0123456789abcdef") {
		t.Fatalf("owner = %q, want %q", doc.Owner, rt.Owner("r0123456789abcdef"))
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-nope"}); err == nil {
		t.Fatal("want flag error")
	}
	if err := run(context.Background(), nil); err == nil {
		t.Fatal("want error without -backends")
	}
}
