package tsr

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math"
	"runtime"
	"testing"

	"tsr/internal/apk"
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
)

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
// package, and a 1 MiB copy through NewVerifiedReader.
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
