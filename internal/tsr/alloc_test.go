package tsr

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math"
	"runtime"
	"testing"

	"tsr/internal/apk"
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
)

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
// allocation by some other goroutine does not fail a budget.
func bytesPerCall(runs int, f func()) uint64 {
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
// 1 MiB copy through NewVerifiedReader.
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
}
