package tsr

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"testing"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/sanitize"
	"tsr/internal/store"
)

// raceEnabled is set by race_test.go: the race detector makes sync.Pool
// drop a quarter of what is put back, so pooled paths allocate more
// and byte budgets do not apply.
var raceEnabled bool

// Allocation budgets for the package byte path, in bytes per call.
const (
	// One flate compressor is about 1 MiB; Encode reuses pooled ones,
	// so it must stay well under even half of one.
	encodeBudget = 512 << 10
	// Decode copies each file once into an exact-size slice; the rest
	// is headers and maps, so 4x the uncompressed size is generous.
	decodeBudgetFactor = 4
	// A verified copy owns two read blocks; anything else it allocates
	// is a fixed-size struct, hash state or wrapper.
	verifiedCopyBudget = 2*verifiedBlock + 4<<10
	// DecodeMeta streams the data segment through the hash, so what it
	// allocates is headers, scripts and signatures, whatever the size.
	decodeMetaBudget = 16 << 10
	// A disk Put writes the payload as it is: only names, the frame
	// header and file handles are allocated.
	fsPutBudget = 16 << 10
	// An index or delta GET sends its generation's memoized bytes, so it
	// allocates only routing, headers and counters, whatever the index
	// size: a copy of even a 500-entry index would not fit.
	indexRouteBudget = 2 << 10
	// An index 304 is answered from the ETag alone: its validator
	// headers, and on an edge the tier header, are all it allocates.
	index304Budget = 64
	// Package and chunk-manifest GETs, pinned where they stand: a
	// streamed package owns two verified-read blocks; a manifest is
	// rendered and gzip'd per request.
	packageRouteBudget = 2*verifiedBlock + 8<<10
	chunksRouteBudget  = 10 << 10
)

// writeNegotiatedBudget is what one WriteNegotiated that sends gz may
// allocate: the buffer gz grew in by doubling (under twice its final
// capacity, which is under twice gz), then a fixed allowance. The
// compressor itself is pooled.
func writeNegotiatedBudget(gz []byte) uint64 {
	return uint64(4*len(gz) + 4<<10)
}

// sanitizeBudget is what one streamed Sanitize may allocate: the output
// twice (the compressed data member it builds, then the package it
// returns), one file's scratch, per file a signature, headers and PAX
// records, and a fixed allowance for the control and signature
// segments.
func sanitizeBudget(out, largestFile, files int) uint64 {
	return uint64(2*out + largestFile + files*8<<10 + 64<<10)
}

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

// TestAllocBudget fails when the package byte path starts allocating
// more than its payload again: apk.Encode and apk.Decode of a 64 KiB
// package, apk.DecodeMeta of a 64 KiB and a 1 MiB one, a streamed
// Sanitize of a 16-file 256 KiB package, a 1 MiB disk store Put, and a
// 1 MiB copy through NewVerifiedReader. It also holds WriteNegotiated
// and the origin's read routes to their budgets (readRouteBudgets).
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	p := bigPackage("budget", "1.0-r0", 4, 16<<10)
	raw, err := apk.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("apk.Encode", func(t *testing.T) {
		got := bytesPerCall(20, func() {
			if _, err := apk.Encode(p); err != nil {
				t.Fatal(err)
			}
		})
		if got >= encodeBudget {
			t.Fatalf("Encode of %d bytes allocates %d B/call, budget %d", p.UncompressedSize(), got, encodeBudget)
		}
	})
	t.Run("apk.Decode", func(t *testing.T) {
		budget := uint64(decodeBudgetFactor * p.UncompressedSize())
		got := bytesPerCall(20, func() {
			if _, err := apk.Decode(raw); err != nil {
				t.Fatal(err)
			}
		})
		if got >= budget {
			t.Fatalf("Decode of %d bytes allocates %d B/call, budget %d", p.UncompressedSize(), got, budget)
		}
	})
	t.Run("apk.DecodeMeta", func(t *testing.T) {
		for _, fileSize := range []int{16 << 10, 256 << 10} {
			raw, err := apk.Encode(bigPackage("budget", "1.0-r0", 4, fileSize))
			if err != nil {
				t.Fatal(err)
			}
			got := bytesPerCall(20, func() {
				if _, err := apk.DecodeMeta(raw); err != nil {
					t.Fatal(err)
				}
			})
			if got >= decodeMetaBudget {
				t.Fatalf("DecodeMeta of a %d KiB data segment allocates %d B/call, budget %d", 4*fileSize>>10, got, decodeMetaBudget)
			}
		}
	})
	t.Run("sanitize.Sanitize", func(t *testing.T) {
		const files, fileSize = 16, 16 << 10
		signer, tsrKey := keys.Shared.MustGet("alpine-distro-key"), keys.Shared.MustGet("budget-tsr")
		p := bigPackage("budget-san", "1.0-r0", files, fileSize)
		if err := apk.Sign(p, signer); err != nil {
			t.Fatal(err)
		}
		raw, err := apk.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sanitize.BuildPlan(&sanitize.SliceSource{Packages: []*apk.Package{p}}, nil, tsrKey)
		if err != nil {
			t.Fatal(err)
		}
		san := &sanitize.Sanitizer{Plan: plan, TrustRing: keys.NewRing(signer.Public()), SignKey: tsrKey}
		var out int
		got := bytesPerCall(20, func() {
			res, err := san.Sanitize(raw)
			if err != nil {
				t.Fatal(err)
			}
			out = len(res.Raw)
		})
		if budget := sanitizeBudget(out, fileSize, files); got > budget {
			t.Fatalf("Sanitize of %d files, %d B, allocates %d B/call, budget %d", files, p.UncompressedSize(), got, budget)
		}
	})
	t.Run("store.FS.Put", func(t *testing.T) {
		fs, err := store.OpenFS(t.TempDir(), store.FSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte("payload!"), (1<<20)/8)
		got := bytesPerCall(20, func() {
			if err := fs.Put("budget@1", data); err != nil {
				t.Fatal(err)
			}
		})
		if got >= fsPutBudget {
			t.Fatalf("1 MiB Put allocates %d B/call, budget %d", got, fsPutBudget)
		}
	})
	t.Run("VerifiedReader", func(t *testing.T) {
		data := bytes.Repeat([]byte("verified"), (1<<20)/8)
		want := sha256.Sum256(data)
		got := bytesPerCall(20, func() {
			vr := NewVerifiedReader(io.NopCloser(bytes.NewReader(data)), want, nil)
			if n, err := io.Copy(io.Discard, vr); err != nil || n != int64(len(data)) {
				t.Fatalf("copied %d bytes, err %v", n, err)
			}
		})
		if got > verifiedCopyBudget {
			t.Fatalf("1 MiB verified copy allocates %d B/call, budget %d", got, verifiedCopyBudget)
		}
	})
	readRouteBudgets(t)
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status and the last slice written.
type discardWriter struct {
	h    http.Header
	code int
	last []byte
}

func (d *discardWriter) Header() http.Header  { return d.h }
func (d *discardWriter) WriteHeader(code int) { d.code = code }
func (d *discardWriter) Write(b []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	d.last = b
	return len(b), nil
}

// syntheticIndex is an n-entry index whose entries are shaped like a
// real catalog's: distinct incompressible hashes, a few dependencies.
// Entry 0's version carries the sequence, so consecutive generations
// differ in exactly one entry.
func syntheticIndex(n int, seq uint64) *index.Index {
	ix := &index.Index{Origin: "budget", Sequence: seq, Entries: make([]index.Entry, n)}
	for i := range ix.Entries {
		name := fmt.Sprintf("pkg-%05d", i)
		e := index.Entry{Name: name, Version: "1.0-r0", Size: int64(4096 + i), Hash: sha256.Sum256([]byte(name)), Depends: []string{"musl"}}
		if i == 0 {
			e.Version = fmt.Sprintf("%d.0-r0", seq)
			e.Hash = sha256.Sum256([]byte(e.Version))
		}
		ix.Entries[i] = e
	}
	return ix
}

// publishSynthetic signs ix and publishes it as r's next generation.
func publishSynthetic(t *testing.T, r *Repo, ix *index.Index) *Published {
	t.Helper()
	signed, err := index.Sign(ix, keys.Shared.MustGet("budget-tsr"))
	if err != nil {
		t.Fatal(err)
	}
	var prev *Published
	if cur := r.served.Load(); cur != nil {
		prev = &cur.Published
	}
	snap := &snapshot{Published: Publish(prev, signed, ix)}
	r.served.Store(snap)
	return &snap.Published
}

// readRouteBudgets serves each read route through tsr.Handler and holds
// it to its budget: the index and delta GETs at ~500 and ~5,000 entries
// under one fixed bound, the 304, package and chunk-manifest GETs where
// they stand. (The edge package holds edge.Handler to the same budgets:
// it imports this one, so its rows cannot live here.)
func readRouteBudgets(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, bigPackage("blob", "1.0-r0", 6, 64<<10))
	pkgTenant := w.deploy(t)
	if _, err := pkgTenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	h := Handler(w.svc)
	d := &discardWriter{h: make(http.Header)}
	check := func(t *testing.T, target string, hdr map[string]string, want int, budget uint64) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, target, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		got := bytesPerCall(20, func() {
			clear(d.h)
			d.code = 0
			h.ServeHTTP(d, req)
			if d.code != want {
				t.Fatalf("GET %s: status %d, want %d", target, d.code, want)
			}
		})
		if got > budget {
			t.Fatalf("GET %s allocates %d B/call, budget %d", target, got, budget)
		}
		t.Logf("GET %s: %d B/call", target, got)
	}
	gz := map[string]string{"Accept-Encoding": "gzip"}
	for _, n := range []int{500, 5000} {
		r := w.deploy(t)
		base := publishSynthetic(t, r, syntheticIndex(n, 1))
		cur := publishSynthetic(t, r, syntheticIndex(n, 2))
		prefix := "/repos/" + r.ID + "/index"
		t.Run(fmt.Sprintf("origin/entries=%d", n), func(t *testing.T) {
			check(t, prefix, gz, http.StatusOK, indexRouteBudget)
			check(t, prefix, nil, http.StatusOK, indexRouteBudget)
			check(t, prefix+"/delta?since="+url.QueryEscape(base.ETag), gz, http.StatusOK, indexRouteBudget)
			check(t, prefix, map[string]string{"If-None-Match": cur.ETag}, http.StatusNotModified, index304Budget)
		})
		if n == 500 {
			t.Run("WriteNegotiated", func(t *testing.T) {
				req := httptest.NewRequest(http.MethodGet, "/", nil)
				req.Header.Set("Accept-Encoding", "gzip")
				got := bytesPerCall(20, func() {
					clear(d.h)
					WriteNegotiated(d, req, cur.Signed.Raw)
				})
				if budget := writeNegotiatedBudget(d.last); got > budget {
					t.Fatalf("WriteNegotiated of %d B to %d B gzip'd allocates %d B/call, budget %d", len(cur.Signed.Raw), len(d.last), got, budget)
				}
			})
		}
	}
	prefix := "/repos/" + pkgTenant.ID + "/packages/blob"
	t.Run("origin/package", func(t *testing.T) {
		check(t, prefix, nil, http.StatusOK, packageRouteBudget)
		check(t, prefix+"/chunks", gz, http.StatusOK, chunksRouteBudget)
	})
}
