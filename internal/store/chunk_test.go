package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func randBytes(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// maxSpans is the span-count bound CutChunks states for an n-byte
// blob: every chunk but a piece's last holds at least MinChunkSize
// bytes, and the layout budget admits at most layoutSlack +
// layoutPerMin·n/MinChunkSize pieces beyond the first.
func maxSpans(n int) int {
	return (layoutPerMin+1)*n/MinChunkSize + layoutSlack + 1
}

// checkSpans fails unless spans tile data in order, each within
// (0, MaxChunkSize], and number at most maxSpans.
func checkSpans(t *testing.T, data []byte, spans []Span) {
	t.Helper()
	var off int64
	for i, s := range spans {
		if s.Offset != off {
			t.Fatalf("n=%d span %d: offset %d want %d", len(data), i, s.Offset, off)
		}
		if s.Size <= 0 || s.Size > MaxChunkSize {
			t.Fatalf("n=%d span %d: size %d out of range", len(data), i, s.Size)
		}
		off += s.Size
	}
	if off != int64(len(data)) {
		t.Fatalf("n=%d: spans cover %d bytes", len(data), off)
	}
	if len(spans) > maxSpans(len(data)) {
		t.Fatalf("n=%d: %d spans, bound %d", len(data), len(spans), maxSpans(len(data)))
	}
}

func TestCutChunksCoversAndBounds(t *testing.T) {
	for _, n := range []int{0, 1, MinChunkSize - 1, MinChunkSize, MaxChunkSize, 1 << 20} {
		data := randBytes(t, int64(n), n)
		// Random bytes may hold a layout marker by chance (a gzip magic
		// about once in 16 MiB); break any, so the blob is one piece.
		for _, pat := range [][]byte{syncMarker, gzipMagic} {
			for i := bytes.Index(data, pat); i >= 0; i = bytes.Index(data, pat) {
				data[i] ^= 0x40
			}
		}
		spans := CutChunks(data)
		if n == 0 && len(spans) != 0 {
			t.Fatal("empty input: want no spans")
		}
		checkSpans(t, data, spans)
		// Bytes with no layout marker are one piece, so only the final
		// chunk may be under the minimum (tail).
		for i, s := range spans {
			if s.Size < MinChunkSize && i != len(spans)-1 {
				t.Fatalf("n=%d span %d: interior size %d < min", n, i, s.Size)
			}
		}
	}
}

// TestCutChunksLayoutCuts: a sync marker ends a chunk once the piece
// holds minSyncPiece bytes, a gzip magic starts one once the piece
// holds minMagicPiece, and markers closer than that are passed over.
func TestCutChunksLayoutCuts(t *testing.T) {
	data := randBytes(t, 21, 200<<10)
	put := func(at int, pat []byte) { copy(data[at:], pat) }
	put(1000-len(syncMarker), syncMarker) // cut at 1000
	put(1020, gzipMagic)                  // cut at 1020
	put(1024, gzipMagic)                  // 4 B into a piece: no cut
	put(1100-len(syncMarker), syncMarker) // 80 B into a piece: no cut
	put(90<<10, gzipMagic)                // cut at 90 KiB
	put(150<<10-len(syncMarker), syncMarker)
	spans := CutChunks(data)
	checkSpans(t, data, spans)
	starts := make(map[int64]bool, len(spans))
	for _, s := range spans {
		starts[s.Offset] = true
	}
	for _, off := range []int64{1000, 1020, 90 << 10, 150 << 10} {
		if !starts[off] {
			t.Errorf("no chunk starts at layout boundary %d", off)
		}
	}
	for _, off := range []int64{1100, 1024} {
		if starts[off] {
			t.Errorf("a chunk starts at %d, inside a piece's minimum", off)
		}
	}
}

func TestCutChunksDeterministic(t *testing.T) {
	data := randBytes(t, 7, 512<<10)
	a := CutChunks(data)
	b := CutChunks(data)
	if len(a) != len(b) {
		t.Fatal("non-deterministic chunk count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) < 4 {
		t.Fatalf("512KiB should cut into several chunks, got %d", len(a))
	}
}

// The property differential sync depends on: editing bytes near the
// end leaves the chunks before the edit identical, because boundaries
// are content-defined rather than offset-defined.
func TestChunkReuseAfterTailEdit(t *testing.T) {
	oldData := randBytes(t, 11, 1<<20)
	newData := append([]byte(nil), oldData...)
	for i := len(newData) - 4096; i < len(newData); i++ {
		newData[i] ^= 0x5A
	}
	oldM, newM := BuildManifest(oldData), BuildManifest(newData)
	oldHashes := make(map[[sha256.Size]byte]bool, len(oldM.Chunks))
	for _, c := range oldM.Chunks {
		oldHashes[c.Hash] = true
	}
	reused := 0
	for _, c := range newM.Chunks {
		if oldHashes[c.Hash] {
			reused++
		}
	}
	if reused < len(newM.Chunks)*3/4 {
		t.Fatalf("tail edit: only %d/%d chunks reused", reused, len(newM.Chunks))
	}
}

func TestBuildManifestAndValid(t *testing.T) {
	data := randBytes(t, 3, 200<<10)
	m := BuildManifest(data)
	if m.PackageHash != sha256.Sum256(data) {
		t.Fatal("package hash mismatch")
	}
	if m.TotalSize != int64(len(data)) {
		t.Fatal("total size mismatch")
	}
	if err := m.Valid(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	for i, c := range m.Chunks {
		if sha256.Sum256(data[c.Offset:c.Offset+c.Size]) != c.Hash {
			t.Fatalf("chunk %d hash mismatch", i)
		}
	}

	// Tampered shapes must be rejected by Valid.
	bad := *m
	bad.Chunks = append([]ManifestChunk(nil), m.Chunks...)
	bad.Chunks[0].Size++
	if bad.Valid() == nil {
		t.Fatal("overlapping chunks accepted")
	}
	bad2 := *m
	bad2.TotalSize++
	if bad2.Valid() == nil {
		t.Fatal("short coverage accepted")
	}
	bad3 := *m
	bad3.Chunks = append([]ManifestChunk(nil), m.Chunks...)
	bad3.Chunks[len(bad3.Chunks)-1].Size += MaxChunkSize + 1
	if bad3.Valid() == nil {
		t.Fatal("oversized chunk accepted")
	}
}

func TestStreamerOpen(t *testing.T) {
	dir := t.TempDir()
	fsStore, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Store{NewMem(), fsStore} {
		sr, ok := st.(Streamer)
		if !ok {
			t.Fatalf("%T does not implement Streamer", st)
		}
		data := randBytes(t, 5, 96<<10)
		if err := st.Put("pkg/a", data); err != nil {
			t.Fatal(err)
		}
		rc, size, err := sr.Open("pkg/a")
		if err != nil {
			t.Fatal(err)
		}
		if size != int64(len(data)) {
			t.Fatalf("%T: size %d want %d", st, size, len(data))
		}
		got, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		rc.Close()
		if !bytes.Equal(got, data) {
			t.Fatalf("%T: streamed bytes differ", st)
		}
		if _, _, err := sr.Open("absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%T: open absent: %v", st, err)
		}
	}
}

// A stream opened before a Delete (or overwriting Put) must keep
// serving the original bytes — the serving path depends on this to
// avoid torn responses during concurrent sync.
func TestStreamerStableUnderDelete(t *testing.T) {
	dir := t.TempDir()
	fsStore, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(t, 9, 64<<10)
	if err := fsStore.Put("pkg/b", data); err != nil {
		t.Fatal(err)
	}
	rc, _, err := fsStore.Open("pkg/b")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := fsStore.Delete("pkg/b"); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stream changed under delete")
	}
}

// FuzzCutChunks: whatever the bytes, the spans tile the input, none
// exceeds MaxChunkSize, the count stays within maxSpans, and a second
// cut agrees. Seeds include marker-dense and magic-dense inputs, which
// exercise the layout budget.
func FuzzCutChunks(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 24<<10)
	rng.Read(random)
	f.Add(random)
	for _, pat := range [][]byte{syncMarker, gzipMagic} {
		for _, gap := range []int{0, 3, 9, 700} {
			dense := append([]byte(nil), random...)
			for at := 0; at+len(pat) <= len(dense); at += len(pat) + gap {
				copy(dense[at:], pat)
			}
			f.Add(dense)
		}
	}
	f.Add(bytes.Repeat([]byte{0x1f, 0x8b, 0x08, 0x00, 0x00, 0xff, 0xff}, 4<<10))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans := CutChunks(data)
		checkSpans(t, data, spans)
		again := CutChunks(data)
		if len(again) != len(spans) {
			t.Fatalf("second cut: %d spans, first %d", len(again), len(spans))
		}
		for i := range spans {
			if spans[i] != again[i] {
				t.Fatalf("span %d differs: %+v vs %+v", i, spans[i], again[i])
			}
		}
	})
}
