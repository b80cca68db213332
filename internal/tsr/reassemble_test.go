package tsr

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"strings"
	"testing"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/store"
)

// TestFetchStageReadsScriptsFromHead: an upstream package whose head
// members parse but whose data member fails its hash, published as is
// under the signed upstream index, gives its scripts to the plan (the
// fetch stage reads only the head) and fails in the sanitize stage,
// which checks the data member: it is reported as a package error and
// never published, on this refresh or the next.
func TestFetchStageReadsScriptsFromHead(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("svc-a", "1.0-r0", "adduser -S ua\n"))

	sign := func(p *apk.Package) []byte {
		if err := apk.Sign(p, w.signer); err != nil {
			t.Fatal(err)
		}
		raw, err := apk.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	good := sign(pkgWithScript("baddata", "1.0-r0", "adduser -S badacct\n"))
	other := pkgWithScript("baddata", "1.0-r0", "adduser -S badacct\n")
	other.Files[0].Content = []byte("not the content the control segment hashes")
	swapped := sign(other)
	goodEnds, swappedEnds := memberEnds(t, good), memberEnds(t, swapped)
	bad := append(append([]byte(nil), good[:goodEnds[1]]...), swapped[swappedEnds[1]:]...)
	if _, err := apk.DecodeHead(bad); err != nil {
		t.Fatalf("the head of the spliced package does not parse: %v", err)
	}
	if _, err := apk.DecodeMeta(bad); err == nil {
		t.Fatal("the spliced package's data member passes its hash")
	}
	if err := w.repo.PublishRaw("baddata", "1.0-r0", nil, bad); err != nil {
		t.Fatal(err)
	}
	for _, m := range w.mirrors {
		m.Sync(w.repo)
	}

	r := w.deploy(t)
	for refresh := 0; refresh < 2; refresh++ {
		stats, err := r.Refresh()
		if err != nil {
			t.Fatalf("refresh %d: %v", refresh, err)
		}
		if len(stats.Errors) != 1 || stats.Errors[0].Name != "baddata" ||
			!strings.Contains(stats.Errors[0].Err, apk.ErrContentHash.Error()) {
			t.Fatalf("refresh %d: errors = %+v, want one data-hash error for baddata", refresh, stats.Errors)
		}
		if _, err := r.FetchPackage("baddata"); err == nil {
			t.Fatalf("refresh %d: a package whose data fails its hash was published", refresh)
		}
		if _, err := r.FetchPackage("svc-a"); err != nil {
			t.Fatalf("refresh %d: svc-a: %v", refresh, err)
		}
		if pre := r.Plan().Preamble; !strings.Contains(pre, "badacct") || !strings.Contains(pre, "ua") {
			t.Fatalf("refresh %d: plan preamble %q lacks the accounts of both packages", refresh, pre)
		}
	}
}

// TestStoredManifestCutsOnceAndRefusesRefuted: a tier cuts a package's
// manifest on the first request and serves the stored blob after; a
// stored blob that does not frame, or whose body names another hash,
// is cut again and replaced; and bytes that do not hash to the entry
// store nothing.
func TestStoredManifestCutsOnceAndRefusesRefuted(t *testing.T) {
	raw := bytes.Repeat([]byte("chunk me "), 40<<10)
	entry := index.Entry{Name: "p", Size: int64(len(raw)), Hash: sha256.Sum256(raw)}
	st := store.NewMem()
	cuts := 0
	get := func() []byte {
		t.Helper()
		blob, err := StoredManifest(st, "k", "p", entry, func() ([]byte, error) { cuts++; return raw, nil })
		if err != nil {
			t.Fatal(err)
		}
		name, m, err := DecodeManifestBlob(blob)
		if err != nil || name != "p" || m.PackageHash != entry.Hash || m.TotalSize != entry.Size {
			t.Fatalf("stored manifest %q %+v, %v: not the package's", name, m, err)
		}
		body, gz, _ := splitManifestBlob(blob)
		if !bytes.Equal(body, EncodeChunkManifest("p", m)) || gz == nil {
			t.Fatal("the stored blob is not the wire body and its gzip")
		}
		return blob
	}
	get()
	get()
	if cuts != 1 {
		t.Fatalf("%d cuts for two requests, want 1", cuts)
	}
	other := store.BuildManifest(raw)
	other.PackageHash = sha256.Sum256([]byte("another package"))
	for i, bad := range [][]byte{[]byte("short"), EncodeManifestBlob("p", other, true)} {
		_ = st.Put("k"+ManifestSuffix, bad)
		get()
		if cuts != 2+i {
			t.Fatalf("bad blob %d: served without a cut", i)
		}
	}
	wrong := index.Entry{Name: "p", Size: entry.Size, Hash: sha256.Sum256([]byte("other bytes"))}
	if _, err := StoredManifest(st, "w", "p", wrong, func() ([]byte, error) { return raw, nil }); err == nil {
		t.Fatal("cut a manifest from bytes that do not hash to the entry")
	}
	if _, err := st.Get("w" + ManifestSuffix); err == nil {
		t.Fatal("stored a manifest of bytes that do not hash to the entry")
	}
}

// diffPair returns two versions of a package of the first n layout
// files that differ in one file: the base a tier holds and the version
// it pulls.
func diffPair(tb testing.TB, n int) (old, want []byte) {
	return encodeSigned(tb, "1.0-r0", layoutFiles("1.0-r0", 1)[:n]), encodeSigned(tb, "1.0-r1", layoutFiles("1.0-r1", 1)[:n])
}

// sliceRanges is an upstream that serves ranges of pkg, counting the
// bytes it hands out.
func sliceRanges(pkg []byte, served *int64) func(off, length int64) ([]byte, error) {
	return func(off, length int64) ([]byte, error) {
		*served += length
		return pkg[off : off+length], nil
	}
}

// describes reports whether every chunk of m hashes to its entry over
// raw: whether m may be kept as raw's manifest.
func describes(m *store.ChunkManifest, raw []byte) bool {
	if m.TotalSize != int64(len(raw)) || m.Valid() != nil {
		return false
	}
	for _, c := range m.Chunks {
		if sha256.Sum256(raw[c.Offset:c.Offset+c.Size]) != c.Hash {
			return false
		}
	}
	return true
}

// cloneManifest returns a deep copy of m.
func cloneManifest(m *store.ChunkManifest) *store.ChunkManifest {
	c := *m
	c.Chunks = append([]store.ManifestChunk(nil), m.Chunks...)
	return &c
}

// TestReassembleChunksBadBaseManifest: a base manifest that describes
// its bytes wrongly — a flipped chunk hash, a hash lifted from the new
// version, a shifted boundary, the wrong length — costs at most a fall
// back to a full fetch: each pull either errors, returns bytes that
// fail the signed entry (the caller's check, which then falls back), or
// returns the wanted bytes. Whenever the bytes verify, the upstream's
// manifest describes them, so keeping it is sound; an upstream whose
// range disagrees with its manifest is refused outright.
func TestReassembleChunksBadBaseManifest(t *testing.T) {
	old, want := diffPair(t, 12)
	entry := index.Entry{Size: int64(len(want)), Hash: sha256.Sum256(want)}
	up := store.BuildManifest(want)
	honest := store.BuildManifest(old)

	// The base chunk the new version does not share, and a new-version
	// chunk the base does not have.
	shared := make(map[[32]byte]bool)
	for _, c := range honest.Chunks {
		shared[c.Hash] = true
	}
	var fresh store.ManifestChunk
	for _, c := range up.Chunks {
		if !shared[c.Hash] {
			fresh = c
			break
		}
	}
	if fresh.Size == 0 || len(honest.Chunks) < 4 || fresh.Size >= honest.Chunks[0].Size+honest.Chunks[1].Size {
		t.Fatalf("fixture: %d base chunks, new chunk of %d bytes", len(honest.Chunks), fresh.Size)
	}

	var baseline int64
	if _, _, err := ReassembleChunks(up, old, honest, sliceRanges(want, &baseline)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		base func() *store.ChunkManifest
		// fails: the pull must not return the wanted bytes.
		fails bool
	}{
		{"honest", func() *store.ChunkManifest { return honest }, false},
		{"none held", func() *store.ChunkManifest { return nil }, false},
		{"flipped chunk hash", func() *store.ChunkManifest {
			m := cloneManifest(honest)
			m.Chunks[1].Hash[0] ^= 0xFF
			return m
		}, false},
		{"hash lifted from the new version", func() *store.ChunkManifest {
			// The first chunk takes the size and hash of the new one; the
			// second absorbs the difference, so both still tile the base.
			m := cloneManifest(honest)
			total := m.Chunks[0].Size + m.Chunks[1].Size
			m.Chunks[0].Size, m.Chunks[0].Hash = fresh.Size, fresh.Hash
			m.Chunks[1].Offset, m.Chunks[1].Size = fresh.Size, total-fresh.Size
			return m
		}, true},
		{"shifted boundary", func() *store.ChunkManifest {
			m := cloneManifest(honest)
			m.Chunks[1].Offset += 7
			m.Chunks[1].Size -= 7
			m.Chunks[0].Size += 7
			return m
		}, false},
		{"wrong length", func() *store.ChunkManifest {
			m := cloneManifest(honest)
			m.TotalSize++
			m.Chunks[len(m.Chunks)-1].Size++
			return m
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fetched int64
			out, st, err := ReassembleChunks(up, old, tc.base(), sliceRanges(want, &fetched))
			if err != nil {
				t.Fatalf("a bad base manifest made the pull error (%v); only a mismatch with the entry is expected", err)
			}
			verified := entry.Matches(out)
			if verified == tc.fails {
				t.Fatalf("output verifies = %v, want %v", verified, !tc.fails)
			}
			if !verified {
				return // the caller falls back to a full fetch
			}
			if !bytes.Equal(out, want) || !describes(up, out) {
				t.Fatal("verified output, but its manifest does not describe it")
			}
			if st.BytesFetched != fetched || fetched < baseline {
				t.Fatalf("fetched %d bytes (stats %d), honest base %d", fetched, st.BytesFetched, baseline)
			}
		})
	}

	t.Run("range disagrees with manifest", func(t *testing.T) {
		lying := bytes.Clone(want)
		lying[fresh.Offset] ^= 0xFF
		var fetched int64
		if _, _, err := ReassembleChunks(up, old, honest, sliceRanges(lying, &fetched)); err == nil {
			t.Fatal("a fetched range that does not hash to its chunk was accepted")
		}
	})
	t.Run("invalid upstream manifest", func(t *testing.T) {
		m := cloneManifest(up)
		m.TotalSize += 1 << 40
		var fetched int64
		if _, _, err := ReassembleChunks(m, old, honest, sliceRanges(want, &fetched)); err == nil {
			t.Fatal("a manifest whose chunks do not tile its size was reassembled")
		}
	})
}

// FuzzReassembleChunks: a pull against base bytes and a base manifest
// that are both arbitrary never panics, allocates no more than the
// signed entry's size (what the edge's pull lets through) plus a
// bound in the input's size, and whatever it returns that verifies is
// the wanted package, described by the manifest it was reassembled
// from.
func FuzzReassembleChunks(f *testing.F) {
	// Few files: the fuzzer minimizes every new input it keeps, which
	// takes as long as the input is large.
	old, want := diffPair(f, 3)
	honest := store.BuildManifest(old)
	f.Add(EncodeChunkManifest("layout", honest), old)
	f.Add(EncodeChunkManifest("layout", honest), want)
	flipped := cloneManifest(honest)
	flipped.Chunks[0].Hash[3] ^= 1
	f.Add(EncodeChunkManifest("layout", flipped), old)
	f.Add([]byte("not a manifest"), old[:len(old)/2])
	f.Add(EncodeChunkManifest("empty", store.BuildManifest(nil)), []byte{})

	up := store.BuildManifest(want)
	entry := index.Entry{Size: int64(len(want)), Hash: up.PackageHash}
	f.Fuzz(func(t *testing.T, manifest, base []byte) {
		_, baseM, err := DecodeChunkManifest(manifest)
		if err != nil {
			baseM = nil
		}
		var fetched int64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, _, err := ReassembleChunks(up, base, baseM, sliceRanges(want, &fetched))
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(entry.Size)+256*uint64(len(manifest)+len(base))+64<<10; n > limit {
			t.Fatalf("reassembly allocated %d bytes, bound %d", n, limit)
		}
		if err != nil {
			return
		}
		if int64(len(out)) != entry.Size {
			t.Fatalf("reassembled %d bytes, entry says %d", len(out), entry.Size)
		}
		if entry.Matches(out) && !describes(up, out) {
			t.Fatal("verified output that its manifest does not describe")
		}
	})
}
