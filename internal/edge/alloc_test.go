package edge

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"testing"

	"tsr/internal/index"
	"tsr/internal/keys"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop a quarter of what is put back, so pooled paths allocate more
// and byte budgets do not apply.
var raceEnabled bool

// Allocation budgets for edge.Handler's read routes, in bytes per
// request — the same bounds internal/tsr's TestAllocBudget holds
// tsr.Handler to.
const (
	// An index or delta GET sends its generation's memoized bytes, so it
	// allocates only routing, headers and counters, whatever the index
	// size: a copy of even a 500-entry index would not fit.
	indexRouteBudget = 2 << 10
	// An index 304 is answered from the ETag alone: its validator
	// headers and the tier header are all it allocates.
	index304Budget = 64
	// A package GET streams through pooled verified-read blocks, and a
	// Range GET slices the cached bytes without copying them, so both
	// allocate only headers and per-request state, whatever the package
	// size.
	packageRouteBudget = 8 << 10
	rangeRouteBudget   = 4 << 10
	// A chunk manifest's wire form, JSON and gzip, is stored beside the
	// package's bytes when the manifest is first cut or pulled, and a
	// manifest GET slices it out of the store, so, like an index GET, it
	// allocates only routing, headers and counters.
	chunksRouteBudget = 2 << 10
)

// bytesPerCall reports the heap bytes one call of f allocates, after a
// warm-up call, as the least of three rounds' averages so that an
// allocation by some other goroutine does not fail a budget. GC is off
// from the warm-up on: a collection empties the sync.Pool codecs, and
// the refill would be counted against the call.
func bytesPerCall(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	best := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&ms)
		best = min(best, (ms.TotalAlloc-before)/uint64(runs))
	}
	return best
}

// budgetIndex is an n-entry index shaped like a real catalog's —
// distinct incompressible hashes, a dependency each — plus an entry for
// each of pkgs. Entry 0's version carries the sequence, so consecutive
// generations differ in exactly one entry.
func budgetIndex(n int, seq uint64, pkgs map[string][]byte) *index.Index {
	ix := &index.Index{Origin: "budget", Sequence: seq}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("pkg-%05d", i)
		e := index.Entry{Name: name, Version: "1.0-r0", Size: int64(4096 + i), Hash: sha256.Sum256([]byte(name)), Depends: []string{"musl"}}
		if i == 0 {
			e.Version = fmt.Sprintf("%d.0-r0", seq)
			e.Hash = sha256.Sum256([]byte(e.Version))
		}
		ix.Add(e)
	}
	for name, pkg := range pkgs {
		ix.Add(index.Entry{Name: name, Version: "1.0-r0", Size: int64(len(pkg)), Hash: sha256.Sum256(pkg)})
	}
	return ix
}

// TestAllocBudget holds edge.Handler's read routes to their budgets: the
// index and delta GETs at ~500 and ~5,000 entries under one fixed
// bound, a 64 KiB Range GET of a cached package over 1 MiB under
// another, the 304, package and chunk-manifest GETs where they stand.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	rng := rand.New(rand.NewSource(29))
	pkgs := map[string][]byte{"blob": make([]byte, 6*64<<10), "big": make([]byte, 5*256<<10)}
	rng.Read(pkgs["blob"])
	rng.Read(pkgs["big"])
	sw := newSliceWriter()
	check := func(t *testing.T, h http.Handler, target string, hdr map[string]string, want int, budget uint64) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, target, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		got := bytesPerCall(20, func() {
			clear(sw.h)
			sw.code, sw.body = 0, nil
			h.ServeHTTP(sw, req)
			if sw.code != want {
				t.Fatalf("GET %s: status %d, want %d", target, sw.code, want)
			}
		})
		if got > budget {
			t.Fatalf("GET %s allocates %d B/call, budget %d", target, got, budget)
		}
		t.Logf("GET %s: %d B/call", target, got)
	}
	gz := map[string]string{"Accept-Encoding": "gzip"}
	for _, n := range []int{500, 5000} {
		origin := &scriptedOrigin{pkgs: pkgs}
		rep := &Replica{RepoID: "r", Origin: origin}
		var tags []string
		for seq := uint64(1); seq <= 2; seq++ {
			signed, err := index.Sign(budgetIndex(n, seq, pkgs), keys.Shared.MustGet("edge-budget"))
			if err != nil {
				t.Fatal(err)
			}
			origin.setIndex(signed, signed.ETag())
			if err := rep.SyncCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			tags = append(tags, signed.ETag())
		}
		h := Handler(map[string]*Replica{"r": rep}, "budget-edge")
		t.Run(fmt.Sprintf("edge/entries=%d", n), func(t *testing.T) {
			check(t, h, "/repos/r/index", gz, http.StatusOK, indexRouteBudget)
			check(t, h, "/repos/r/index", nil, http.StatusOK, indexRouteBudget)
			check(t, h, "/repos/r/index/delta?since="+url.QueryEscape(tags[0]), gz, http.StatusOK, indexRouteBudget)
			check(t, h, "/repos/r/index", map[string]string{"If-None-Match": tags[1]}, http.StatusNotModified, index304Budget)
		})
		if n == 500 {
			t.Run("edge/package", func(t *testing.T) {
				check(t, h, "/repos/r/packages/blob", nil, http.StatusOK, packageRouteBudget)
				check(t, h, "/repos/r/packages/blob/chunks", gz, http.StatusOK, chunksRouteBudget)
			})
			t.Run("edge/range", func(t *testing.T) {
				check(t, h, "/repos/r/packages/big", map[string]string{"Range": "bytes=0-65535"}, http.StatusPartialContent, rangeRouteBudget)
			})
		}
	}
}
