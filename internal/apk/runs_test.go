package apk

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// textPackage is n files of size bytes of compressible text. Only file
// bumped's text depends on the version.
func textPackage(n, size, bumped int, version string) *Package {
	words := []string{"package", "signature", "enclave", "mirror", "index", "refresh", "update", "the", "of", "a"}
	p := &Package{Name: "text", Version: version, Arch: "x86_64"}
	for i := 0; i < n; i++ {
		seed := int64(i)
		if i == bumped {
			seed = int64(crc32.ChecksumIEEE([]byte(version)))
		}
		rng := rand.New(rand.NewSource(seed))
		var b []byte
		for len(b) < size {
			b = append(append(b, words[rng.Intn(len(words))]...), " \n"[rng.Intn(2)])
		}
		p.Files = append(p.Files, File{Path: fmt.Sprintf("/usr/share/text/%03d.txt", i), Mode: 0o644, Content: b[:size]})
	}
	return p
}

// stamp is a Rewriter that tags every file with its content digest, as
// the sanitizer signs each, and "signs" the control segment with its
// digest.
type stamp struct{}

func (stamp) Control(*Package, []byte) error { return nil }

func (stamp) File(f *File) error {
	d := sha256.Sum256(f.Content)
	f.Xattrs = map[string][]byte{XattrIMA: d[:]}
	return nil
}

func (stamp) Sign(control []byte) (string, []byte, error) {
	d := sha256.Sum256(control)
	return "stamp", d[:], nil
}

func mustRewrite(t testing.TB, raw []byte, runs *RunMemo) []byte {
	t.Helper()
	out, err := Rewrite(raw, stamp{}, runs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunMemoHitsDecode: a run is admitted on its second sighting and
// copied from the third on; a package built from copied runs is the
// memo-less bytes, a standard gzip reader decodes it, and a flipped
// byte inside a copied run fails Decode.
func TestRunMemoHitsDecode(t *testing.T) {
	raw := mustEncode(t, textPackage(8, 40<<10, -1, "1.0-r0"))
	want := mustRewrite(t, raw, nil)
	m := NewRunMemo()
	var out []byte
	for pass := 0; pass < 3; pass++ {
		if out = mustRewrite(t, raw, m); !bytes.Equal(out, want) {
			t.Fatalf("pass %d through the memo differs from the memo-less output", pass)
		}
	}
	// Eight file runs and the end-of-archive run: deflated on the first
	// two passes, copied on the third.
	if s := m.Stats(); s.Hits != 9 || s.Deflated != 18 {
		t.Fatalf("stats = %+v, want 9 hits and 18 deflated", s)
	}

	zr, err := gzip.NewReader(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gzip.Reader: %v", err)
	}
	if segs := rawSegments(t, out); !bytes.Equal(plain, bytes.Join(segs, nil)) {
		t.Fatal("gzip.Reader and Decode read different segments")
	}

	var reused []byte
	m.runs.Range(func(_ [32]byte, z []byte) {
		if len(z) > len(reused) {
			reused = z
		}
	})
	at := bytes.Index(out, reused)
	if at < 0 {
		t.Fatal("the output does not hold a remembered run")
	}
	for _, off := range []int{0, len(reused) / 2, len(reused) - 1} {
		bad := bytes.Clone(out)
		bad[at+off] ^= 0x20
		if _, err := Decode(bad); !errors.Is(err, ErrFormat) && !errors.Is(err, ErrContentHash) {
			t.Fatalf("byte %d of a reused run flipped: err = %v", off, err)
		}
	}
}

// TestRunMemoConcurrent: goroutines rewriting versions of a package
// through one shared run memo each get the memo-less bytes.
func TestRunMemoConcurrent(t *testing.T) {
	var raws, serial [][]byte
	for v := 0; v < 3; v++ {
		raw := mustEncode(t, textPackage(4, 40<<10, v, fmt.Sprintf("1.%d-r0", v)))
		raws, serial = append(raws, raw), append(serial, mustRewrite(t, raw, nil))
	}
	m := NewRunMemo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := range raws {
					k := (i + g) % len(raws)
					out, err := Rewrite(raws[k], stamp{}, m)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(out, serial[k]) {
						t.Errorf("goroutine %d: version %d through the shared memo differs from serial", g, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Stats().Hits == 0 {
		t.Fatal("no run was copied from the memo")
	}
}

// TestRunMemoBounded: the runs and sightings a memo holds stay within
// two maps' bounds, and a run in use survives the rotations.
func TestRunMemoBounded(t *testing.T) {
	const limit, seenCap = 8 << 10, 8
	m := newRunMemo(limit, seenCap)
	run := func(i int) []byte {
		b := make([]byte, 1<<10)
		rand.New(rand.NewSource(int64(i))).Read(b)
		return b
	}
	var dst bytes.Buffer
	hot := run(-1)
	for i := -1; i < 64; i++ {
		for twice := 0; twice < 2; twice++ { // seen, then admitted
			if err := m.deflate(&dst, run(i)); err != nil {
				t.Fatal(err)
			}
		}
		before := m.Stats().Hits
		if err := m.deflate(&dst, hot); err != nil {
			t.Fatal(err)
		}
		if m.Stats().Hits != before+1 {
			t.Fatalf("the hot run was dropped after %d others", i+1)
		}
	}
	held := 0
	m.runs.Range(func(_ [32]byte, z []byte) { held += len(z) })
	if held > 2*limit {
		t.Fatalf("memo holds %d bytes of runs, bound %d", held, 2*limit)
	}
	if n := m.seen.Len(); n > 2*seenCap {
		t.Fatalf("memo holds %d sightings, bound %d", n, 2*seenCap)
	}
}
