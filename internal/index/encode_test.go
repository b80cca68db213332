package index

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// oracleEncode is the fmt-based encoder Encode replaced. Signatures,
// ETags and the edge conformance pins hash Encode's output, so the two
// must agree byte for byte on every index.
func oracleEncode(ix *Index) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "origin = %s\n", ix.Origin)
	fmt.Fprintf(&b, "sequence = %d\n", ix.Sequence)
	entries := append([]Entry(nil), ix.Entries...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	for _, e := range entries {
		deps := strings.Join(e.Depends, ",")
		if deps == "" {
			deps = "-"
		}
		fmt.Fprintf(&b, "package = %s %s %d %x %s\n", e.Name, e.Version, e.Size, e.Hash, deps)
	}
	return []byte(b.String())
}

// randomIndex builds an index of up to maxEntries entries in random
// order, with the shapes the text format has corner cases for: empty
// and odd dependency lists, empty fields, extreme sizes and sequences,
// and repeated names.
func randomIndex(rng *rand.Rand, maxEntries int) *Index {
	origins := []string{"", "alpine-main", "tsr-" + strings.Repeat("x", rng.Intn(40))}
	sequences := []uint64{0, 1, 9, 10, math.MaxUint64, rng.Uint64()}
	sizes := []int64{0, 9, 10, 99999, -1, -10, math.MaxInt64, math.MinInt64, rng.Int63()}
	depends := [][]string{nil, {}, {""}, {"a", ""}, {"", ""}, {"", "b"}, {"musl"}, {"musl", "busybox", "openssl"}}
	ix := &Index{
		Origin:   origins[rng.Intn(len(origins))],
		Sequence: sequences[rng.Intn(len(sequences))],
	}
	n := rng.Intn(maxEntries + 1)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("pkg%d", rng.Intn(4*maxEntries+1))
		if rng.Intn(20) == 0 {
			name = ""
		}
		e := Entry{
			Name:    name,
			Version: fmt.Sprintf("%d.%d-r%d", rng.Intn(20), rng.Intn(100), rng.Intn(5)),
			Size:    sizes[rng.Intn(len(sizes))],
			Depends: depends[rng.Intn(len(depends))],
		}
		rng.Read(e.Hash[:])
		ix.Entries = append(ix.Entries, e)
	}
	if rng.Intn(2) == 0 {
		sort.Slice(ix.Entries, func(i, j int) bool { return ix.Entries[i].Name < ix.Entries[j].Name })
	}
	return ix
}

// TestEncodeMatchesOracle: Encode writes exactly what the fmt-based
// encoder wrote, on random indexes sorted and unsorted, and leaves the
// index it encodes as it was.
func TestEncodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	check := func(ix *Index) {
		t.Helper()
		before := append([]Entry(nil), ix.Entries...)
		got, want := ix.Encode(), oracleEncode(ix)
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from the oracle:\n got %q\nwant %q", got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("Encode returned %d B in a buffer of %d", len(got), cap(got))
		}
		for i := range before {
			if ix.Entries[i].Name != before[i].Name {
				t.Fatalf("Encode reordered the index's entries")
			}
		}
	}
	check(&Index{})
	check(sampleIndex())
	for i := 0; i < 2000; i++ {
		check(randomIndex(rng, 40))
	}
	// Enough entries that sort.Slice leaves insertion sort for pdqsort,
	// with repeated names among them.
	for i := 0; i < 50; i++ {
		check(randomIndex(rng, 400))
	}
}

// TestEncodeAllocs: a sorted index, which is what Add keeps, encodes in
// one allocation, its output; an unsorted one adds the sorted copy of
// its entries and the closure, interface and swapper sort.Slice takes.
func TestEncodeAllocs(t *testing.T) {
	ix := &Index{Origin: "alpine-main", Sequence: 12345}
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("pkg-%04d", i)
		ix.Add(Entry{Name: name, Version: "1.0-r0", Size: int64(1000 + i), Hash: sha256.Sum256([]byte(name)), Depends: []string{"musl", "busybox"}})
	}
	if a := testing.AllocsPerRun(20, func() { ix.Encode() }); a > 1 {
		t.Fatalf("Encode of a sorted 500-entry index: %.0f allocations, want 1", a)
	}
	ix.Entries[0], ix.Entries[499] = ix.Entries[499], ix.Entries[0]
	if a := testing.AllocsPerRun(20, func() { ix.Encode() }); a > 5 {
		t.Fatalf("Encode of an unsorted 500-entry index: %.0f allocations, want at most 5", a)
	}
}
