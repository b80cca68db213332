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
	// Decode copies each file once into an exact-size slice; the rest
	// is headers and maps, so 4x the uncompressed size is generous.
	decodeBudgetFactor = 4
	// A verified copy takes its two read blocks from a pool; what it
	// allocates is a fixed-size struct, hash state or wrapper.
	verifiedCopyBudget = 4 << 10
	// DecodeMeta streams the data segment through the hash, so what it
	// allocates is headers, scripts and signatures, whatever the size.
	decodeMetaBudget = 16 << 10
	// A disk Put writes the payload as it is: only names, the frame
	// header and file handles are allocated.
	fsPutBudget = 16 << 10
	// A memory Put keeps the slice it is handed and a Get hands it back:
	// only the entry record is allocated, whatever the blob size.
	memPutGetBudget = 1 << 10
	// An index or delta GET sends its generation's memoized bytes, so it
	// allocates only routing, headers and counters, whatever the index
	// size: a copy of even a 500-entry index would not fit.
	indexRouteBudget = 2 << 10
	// An index 304 is answered from the ETag alone: its validator
	// headers, and on an edge the tier header, are all it allocates.
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

// writeNegotiatedBudget is what one WriteNegotiated that sends gz may
// allocate: the buffer gz grew in by doubling (under twice its final
// capacity, which is under twice gz), then a fixed allowance. The
// compressor itself is pooled.
func writeNegotiatedBudget(gz []byte) uint64 {
	return uint64(4*len(gz) + 4<<10)
}

// encodeBudget is what one Encode of files files that returns out may
// allocate: the package, with at most an eighth of its length unused
// when it is built in place, then 4 KiB for the hash state, the tar
// writer and the head segments and 1 KiB per file for its headers. The
// compressors and the data scratch are pooled, so a second copy of the
// package does not fit, nor, at filler size, a head room kept with it.
func encodeBudget(out, files int) uint64 {
	return uint64(out + out>>3 + 4<<10 + files<<10)
}

// sanitizeBudget is what one streamed Sanitize of files files that
// returns out may allocate: what Encode may, plus 8 KiB for the
// verified head and the package signature, and per file 4 KiB for its
// signature and the PAX records that carry it.
func sanitizeBudget(out, files int) uint64 {
	return encodeBudget(out, files) + uint64(8<<10+files*4<<10)
}

// budgetShapes are the packages the Encode and Sanitize rows build: a
// filler, the median Alpine package (about 12 KB in 8 files, as
// internal/workload models it), 64 KiB, and two whose data member
// outgrows the codec's 256 KiB pooled scratch and is built in place:
// 1 MiB in 64 KiB files, and 384 KiB in median-sized files, where each
// file's signature adds about a third and the output's size must be
// projected from what was read, not guessed per file.
var budgetShapes = []struct {
	name            string
	files, fileSize int
}{
	{"filler", 1, 512},
	{"median", 8, 1536},
	{"64KiB", 4, 16 << 10},
	{"1MiB", 16, 64 << 10},
	{"384KiB-small-files", 256, 1536},
}

// checkSpare fails when a package keeps more memory than it uses: one
// that fits the scratch is an exact-size copy, one built in place may
// keep at most an eighth of its length.
func checkSpare(t *testing.T, what string, out []byte) {
	t.Helper()
	limit := 0
	if len(out) > 256<<10-apk.HeadRoom {
		limit = len(out) >> 3
	}
	if spare := cap(out) - len(out); spare > limit {
		t.Errorf("%s returns %d B with %d B spare capacity, limit %d", what, len(out), spare, limit)
	}
}

// textPackage is a package of compressible text, for which the size
// Encode and Rewrite reserve up front overshoots.
func textPackage(name, version string, nFiles, fileSize int) *apk.Package {
	p := &apk.Package{Name: name, Version: version}
	line := []byte("the quick brown fox jumps over the lazy dog " + version + "\n")
	for i := 0; i < nFiles; i++ {
		content := bytes.Repeat(line, fileSize/len(line)+1)[:fileSize]
		p.Files = append(p.Files, apk.File{Path: fmt.Sprintf("/usr/share/doc/%s/%03d.txt", name, i), Mode: 0o644, Content: content})
	}
	return p
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
// more than its payload again: apk.Encode and a streamed Sanitize of
// each of budgetShapes, apk.Decode of a 64 KiB package, apk.DecodeMeta
// of a 64 KiB and a 1 MiB one, the spare capacity of each encoded and
// sanitized package and of text packages, a 1 MiB disk store Put, a
// 1 MiB memory store Put and Get, and a 1 MiB copy through
// NewVerifiedReader. It also holds WriteNegotiated
// and the origin's read routes to their budgets (readRouteBudgets).
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	signer, tsrKey := keys.Shared.MustGet("alpine-distro-key"), keys.Shared.MustGet("budget-tsr")
	sanitizer := func(t *testing.T, p *apk.Package) *sanitize.Sanitizer {
		plan, err := sanitize.BuildPlan(&sanitize.SliceSource{Packages: []*apk.Package{p}}, nil, tsrKey)
		if err != nil {
			t.Fatal(err)
		}
		return &sanitize.Sanitizer{Plan: plan, TrustRing: keys.NewRing(signer.Public()), SignKey: tsrKey}
	}
	pkgs := make([]*apk.Package, len(budgetShapes))
	raws := make([][]byte, len(budgetShapes))
	for i, shape := range budgetShapes {
		pkgs[i] = bigPackage("budget-"+shape.name, "1.0-r0", shape.files, shape.fileSize)
		if err := apk.Sign(pkgs[i], signer); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("apk.Encode", func(t *testing.T) {
		for i, shape := range budgetShapes {
			t.Run(shape.name, func(t *testing.T) {
				p := pkgs[i]
				got := bytesPerCall(10, func() {
					var err error
					if raws[i], err = apk.Encode(p); err != nil {
						t.Fatal(err)
					}
				})
				if budget := encodeBudget(len(raws[i]), shape.files); got > budget {
					t.Fatalf("Encode of %d files, %d B, to %d B allocates %d B/call, budget %d", shape.files, p.UncompressedSize(), len(raws[i]), got, budget)
				}
				checkSpare(t, "Encode", raws[i])
			})
		}
	})
	t.Run("sanitize.Sanitize", func(t *testing.T) {
		for i, shape := range budgetShapes {
			t.Run(shape.name, func(t *testing.T) {
				if raws[i] == nil {
					t.Skip("apk.Encode failed")
				}
				san := sanitizer(t, pkgs[i])
				var out []byte
				got := bytesPerCall(5, func() {
					res, err := san.Sanitize(raws[i])
					if err != nil {
						t.Fatal(err)
					}
					out = res.Raw
				})
				if budget := sanitizeBudget(len(out), shape.files); got > budget {
					t.Fatalf("Sanitize of %d files, %d B, to %d B allocates %d B/call, budget %d", shape.files, pkgs[i].UncompressedSize(), len(out), got, budget)
				}
				checkSpare(t, "Sanitize", out)
			})
		}
	})
	p := bigPackage("budget", "1.0-r0", 4, 16<<10)
	raw, err := apk.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
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
	// Text compresses far below what its size suggests: neither eight
	// 32 KiB text files nor one 1 MiB file, which streams, may come
	// back with room sized for incompressible content.
	t.Run("text package spare capacity", func(t *testing.T) {
		for _, p := range []*apk.Package{textPackage("budget-text", "1.0-r0", 8, 32<<10), textPackage("budget-text-big", "1.0-r0", 1, 1<<20)} {
			if err := apk.Sign(p, signer); err != nil {
				t.Fatal(err)
			}
			raw, err := apk.Encode(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sanitizer(t, p).Sanitize(raw)
			if err != nil {
				t.Fatal(err)
			}
			checkSpare(t, "Encode of "+p.Name, raw)
			checkSpare(t, "Sanitize of "+p.Name, res.Raw)
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
	t.Run("store.Mem.PutGet", func(t *testing.T) {
		m := store.NewMem()
		data := bytes.Repeat([]byte("payload!"), (1<<20)/8)
		got := bytesPerCall(20, func() {
			if err := m.Put("budget@1", data); err != nil {
				t.Fatal(err)
			}
			if raw, err := m.Get("budget@1"); err != nil || len(raw) != len(data) {
				t.Fatalf("Get: %d bytes, %v", len(raw), err)
			}
		})
		if got > memPutGetBudget {
			t.Fatalf("1 MiB Put and Get allocate %d B/call, budget %d", got, memPutGetBudget)
		}
		t.Logf("1 MiB Put and Get: %d B/call", got)
	})
	t.Run("VerifiedReader", func(t *testing.T) {
		data := bytes.Repeat([]byte("verified"), (1<<20)/8)
		want := sha256.Sum256(data)
		got := bytesPerCall(20, func() {
			vr := NewVerifiedReader(io.NopCloser(bytes.NewReader(data)), want, nil)
			if n, err := io.Copy(io.Discard, vr); err != nil || n != int64(len(data)) {
				t.Fatalf("copied %d bytes, err %v", n, err)
			}
			vr.Close()
		})
		if got > verifiedCopyBudget {
			t.Fatalf("1 MiB verified copy allocates %d B/call, budget %d", got, verifiedCopyBudget)
		}
		t.Logf("1 MiB verified copy: %d B/call", got)
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
// under one fixed bound, a 64 KiB Range GET of a cached package over
// 1 MiB under another, the 304, package and chunk-manifest GETs where
// they stand. (The edge package holds edge.Handler to the same budgets:
// it imports this one, so its rows cannot live here.)
func readRouteBudgets(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, bigPackage("blob", "1.0-r0", 6, 64<<10), bigPackage("big", "1.0-r0", 5, 256<<10))
	pkgTenant := w.deploy(t)
	if _, err := pkgTenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	if big, err := pkgTenant.FetchPackage("big"); err != nil || len(big) < 1<<20 {
		t.Fatalf("big package: %d bytes, %v; the Range row needs at least 1 MiB", len(big), err)
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
	t.Run("origin/range", func(t *testing.T) {
		check(t, "/repos/"+pkgTenant.ID+"/packages/big", map[string]string{"Range": "bytes=0-65535"}, http.StatusPartialContent, rangeRouteBudget)
	})
}
