package apk

import (
	"archive/tar"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"tsr/internal/keys"
)

func gzipWriter(w io.Writer) *gzip.Writer { return gzip.NewWriter(w) }

func samplePackage() *Package {
	return &Package{
		Name:    "ntpd",
		Version: "4.2.8-r0",
		Arch:    "x86_64",
		Depends: []string{"musl", "openssl"},
		Scripts: map[string]string{
			"post-install": "addgroup -S ntp\nadduser -S -G ntp ntp\n",
		},
		Files: []File{
			{Path: "/usr/sbin/ntpd", Mode: 0o755, Content: []byte("ELF...")},
			{Path: "/etc/ntp.conf", Mode: 0o644, Content: []byte("server pool.ntp.org\n"),
				Xattrs: map[string][]byte{XattrIMA: {0xAA, 0xBB}}},
		},
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	p := samplePackage()
	raw, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || got.Version != p.Version || got.Arch != p.Arch {
		t.Fatalf("identity = %s-%s %s", got.Name, got.Version, got.Arch)
	}
	if !reflect.DeepEqual(got.Depends, p.Depends) {
		t.Fatalf("depends = %v", got.Depends)
	}
	if got.Scripts["post-install"] != p.Scripts["post-install"] {
		t.Fatalf("script = %q", got.Scripts["post-install"])
	}
	if len(got.Files) != 2 {
		t.Fatalf("files = %d", len(got.Files))
	}
	// Files come back sorted by path.
	if got.Files[0].Path != "/etc/ntp.conf" || got.Files[1].Path != "/usr/sbin/ntpd" {
		t.Fatalf("paths = %v, %v", got.Files[0].Path, got.Files[1].Path)
	}
	if !bytes.Equal(got.Files[0].Xattrs[XattrIMA], []byte{0xAA, 0xBB}) {
		t.Fatalf("xattr lost: %v", got.Files[0].Xattrs)
	}
	if got.Files[1].Mode != 0o755 {
		t.Fatalf("mode = %o", got.Files[1].Mode)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	p := samplePackage()
	a, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestDecodeRejectsTamperedData(t *testing.T) {
	p := samplePackage()
	raw, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode with modified file content but stale declared hash:
	// simulate by flipping a byte inside the last gzip member's payload.
	// Easier path: build a package whose control says one hash while the
	// data segment differs. Construct manually.
	segs := rawSegments(t, raw)
	// Tamper: replace the data segment with that of another package.
	other := samplePackage()
	other.Files[0].Content = []byte("TAMPERED")
	otherRaw, err := Encode(other)
	if err != nil {
		t.Fatal(err)
	}
	otherSegs := rawSegments(t, otherRaw)
	tampered := rebuild(t, segs[0], segs[1], otherSegs[2])
	if _, err := Decode(tampered); !errors.Is(err, ErrContentHash) {
		t.Fatalf("err = %v, want ErrContentHash", err)
	}
	// DecodeHead reads the two head members only: it returns the
	// scripts of a package whose data member fails its hash, and leaves
	// that failure to the step that reads the data (Rewrite).
	head, err := DecodeHead(tampered)
	if err != nil {
		t.Fatalf("DecodeHead of a package with a bad data member: %v", err)
	}
	if head.Name != p.Name || !reflect.DeepEqual(head.Scripts, p.Scripts) || head.Files != nil {
		t.Fatalf("DecodeHead = %+v, want %s's metadata and scripts without files", head, p.Name)
	}
}

// rawSegments splits an encoded package into its three uncompressed
// segments via the package's own decompressor.
func rawSegments(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var c codec
	r := bytes.NewReader(raw)
	for i := range c.seg {
		if err := c.inflate(r, i); err != nil {
			t.Fatal(err)
		}
	}
	return [][]byte{c.seg[0].Bytes(), c.seg[1].Bytes(), c.seg[2].Bytes()}
}

// rebuild re-gzips three segments into package wire format.
func rebuild(t *testing.T, segs ...[]byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, seg := range segs {
		gz := gzipWriter(&out)
		if _, err := gz.Write(seg); err != nil {
			t.Fatal(err)
		}
		if err := gz.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// decodeErrorInputs are malformed packages Decode must reject with
// ErrFormat: garbage, too few segments, trailing bytes after three.
func decodeErrorInputs(t testing.TB) map[string][]byte {
	var one bytes.Buffer
	gz := gzipWriter(&one)
	gz.Write([]byte("x"))
	gz.Close()
	return map[string][]byte{
		"garbage":        []byte("not gzip"),
		"one segment":    one.Bytes(),
		"trailing bytes": append(mustEncode(t, samplePackage()), 0xFF),
	}
}

func TestDecodeErrors(t *testing.T) {
	for name, raw := range decodeErrorInputs(t) {
		if _, err := Decode(raw); !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: err = %v", name, err)
		}
	}
}

// TestDecodeRejectsOversizedMember: a tar header claiming more bytes
// than its segment holds is ErrFormat in every segment, and Decode does
// not allocate the claimed size first.
func TestDecodeRejectsOversizedMember(t *testing.T) {
	const claimed = 64 << 20
	var hostile bytes.Buffer
	tw := tar.NewWriter(&hostile)
	if err := tw.WriteHeader(&tar.Header{Name: ".SIGN.RSA.x", Mode: 0o644, Size: claimed}); err != nil {
		t.Fatal(err)
	}
	tw.Write([]byte("only these bytes follow"))
	hostile.Write(make([]byte, 1024)) // no Close: the member stays short

	segs := rawSegments(t, mustEncode(t, samplePackage()))
	for i := range segs {
		parts := append([][]byte(nil), segs...)
		parts[i] = hostile.Bytes()
		raw := rebuild(t, parts...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(raw)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("segment %d: err = %v, want ErrFormat", i, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= claimed/4 {
			t.Fatalf("segment %d: Decode allocated %d bytes for a member claiming %d", i, n, claimed)
		}
	}
}

// TestDecodeDistrustsSizeTrailer: the gzip trailer that ends a package
// is the sender's claim of the data segment's size. A trailer claiming
// 64 MiB must not buy a large allocation, whether the first member is
// garbage (64 KiB of it, enough for deflate's 1032:1 limit to allow the
// claim) or the first two members are valid and only the data member
// lies.
func TestDecodeDistrustsSizeTrailer(t *testing.T) {
	const claimed, budget = 64 << 20, 1 << 20
	lie := binary.LittleEndian.AppendUint32(nil, claimed)
	valid := mustEncode(t, samplePackage())
	inputs := map[string][]byte{
		"garbage":           append(bytes.Repeat([]byte{0x1F}, 64<<10), lie...),
		"lying data member": append(valid[:len(valid)-4:len(valid)-4], lie...),
	}
	Decode(valid) // warm the codec pool
	for name, raw := range inputs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(raw)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: err = %v, want ErrFormat", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= budget {
			t.Fatalf("%s: Decode allocated %d bytes for a trailer claiming %d", name, n, claimed)
		}
	}
}

func mustEncode(t testing.TB, p *Package) []byte {
	t.Helper()
	raw, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// largePackage has files of seeded pseudo-random content totalling
// about size bytes, so that compressing it works a flate window hard.
func largePackage(name string, seed int64, size int) *Package {
	rng := rand.New(rand.NewSource(seed))
	p := &Package{Name: name, Version: "1.0-r0", Depends: []string{"musl"},
		Scripts: map[string]string{"post-install": "true\n"}}
	for i := 0; i < 4; i++ {
		content := make([]byte, size/4)
		rng.Read(content[:len(content)/2]) // half random, half zeros
		p.Files = append(p.Files, File{Path: fmt.Sprintf("/usr/lib/%s/%d", name, i), Mode: 0o644, Content: content})
	}
	p.Signatures = map[string][]byte{"k": []byte(name)}
	return p
}

// freshEncode builds the encoding of p with none of Encode's pooled
// state: segments tarred into fresh buffers, the control segment via
// ControlBytes, and a new flate writer per run. The data segment is cut
// into runs after the first entry that brings a run to 32 KiB.
func freshEncode(t *testing.T, p *Package) []byte {
	t.Helper()
	var sig, data bytes.Buffer
	if err := writeSignatureSegment(&sig, p.Signatures); err != nil {
		t.Fatal(err)
	}
	control, err := p.ControlBytes()
	if err != nil {
		t.Fatal(err)
	}
	files := append([]File(nil), p.Files...)
	sort.Slice(files, func(i, j int) bool { return files[i].Path < files[j].Path })
	tw := tar.NewWriter(&data)
	var cuts []int
	start := 0
	for i := range files {
		if err := writeFile(tw, &files[i]); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if data.Len()-start >= 32<<10 {
			start = data.Len()
			cuts = append(cuts, start)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if start != data.Len() {
		cuts = append(cuts, data.Len())
	}

	var out bytes.Buffer
	fresh := func() *flate.Writer {
		zw, err := flate.NewWriter(&out, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		return zw
	}
	member := func(seg []byte, cuts []int) {
		out.Write([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff})
		start := 0
		for _, end := range cuts {
			zw := fresh()
			zw.Write(seg[start:end])
			if err := zw.Flush(); err != nil {
				t.Fatal(err)
			}
			start = end
		}
		if err := fresh().Close(); err != nil { // an empty writer's Close is the final block
			t.Fatal(err)
		}
		binary.Write(&out, binary.LittleEndian, [2]uint32{crc32.ChecksumIEEE(seg), uint32(len(seg))})
	}
	member(sig.Bytes(), []int{sig.Len()})
	member(control, []int{len(control)})
	member(data.Bytes(), cuts)
	return out.Bytes()
}

// TestEncodeMatchesFreshWriter: a pooled writer and scratch that just
// encoded a large package must leave no trace in the next encoding,
// whether it is one run or several, some streamed past the run buffer.
func TestEncodeMatchesFreshWriter(t *testing.T) {
	mustEncode(t, largePackage("big", 1, 1<<20))
	for _, p := range []*Package{samplePackage(), largePackage("runs", 2, 1<<20), textPackage(24, 3<<10, -1, "")} {
		if got, want := mustEncode(t, p), freshEncode(t, p); !bytes.Equal(got, want) {
			t.Fatalf("%s: Encode after a large package = %d bytes, fresh writers give %d", p.Name, len(got), len(want))
		}
	}
}

// TestEncodeConcurrent: goroutines encoding different packages at once
// through the shared pool each get their serial encoding.
func TestEncodeConcurrent(t *testing.T) {
	const n = 8
	pkgs := make([]*Package, n)
	serial := make([][]byte, n)
	for i := range pkgs {
		pkgs[i] = largePackage(fmt.Sprintf("p%d", i), int64(i), (i+1)*16<<10)
		serial[i] = mustEncode(t, pkgs[i])
	}
	var wg sync.WaitGroup
	for i := range pkgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				raw, err := Encode(pkgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(raw, serial[i]) {
					t.Errorf("package %d round %d: concurrent encoding differs from serial", i, round)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// FuzzDecode: Decode never panics, fails only with its sentinels, and
// whatever it accepts survives Encode → Decode unchanged up to the
// order Encode imposes (dependencies and files sorted). DecodeMeta
// fails exactly where Decode fails and otherwise returns the same
// package without its files; DecodeHead then returns that package too,
// and fails only where Decode fails.
func FuzzDecode(f *testing.F) {
	f.Add(mustEncode(f, samplePackage()))
	dup := samplePackage()
	for i := 0; i < 20; i++ {
		dup.Files = append(dup.Files, File{Path: "/etc/ntp.conf", Mode: 0o600, Content: []byte{byte(i)}})
	}
	f.Add(mustEncode(f, dup))
	for _, raw := range decodeErrorInputs(f) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Decode(raw)
		meta, metaErr := DecodeMeta(raw)
		if (err == nil) != (metaErr == nil) {
			t.Fatalf("Decode err = %v, DecodeMeta err = %v", err, metaErr)
		}
		head, headErr := DecodeHead(raw)
		if headErr != nil && err == nil {
			t.Fatalf("DecodeHead err = %v on a package Decode accepts", headErr)
		}
		if headErr != nil && !errors.Is(headErr, ErrFormat) {
			t.Fatalf("DecodeHead: unexpected error %v", headErr)
		}
		if err == nil {
			whole := *p
			whole.Files = nil
			if !reflect.DeepEqual(meta, &whole) {
				t.Fatalf("DecodeMeta = %+v, Decode without files = %+v", meta, &whole)
			}
			if !reflect.DeepEqual(head, &whole) {
				t.Fatalf("DecodeHead = %+v, Decode without files = %+v", head, &whole)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrContentHash) {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		again, err := Encode(p)
		if err != nil {
			t.Fatalf("re-encoding a decoded package: %v", err)
		}
		q, err := Decode(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded package: %v", err)
		}
		sort.Strings(p.Depends)
		sortFiles(p.Files)
		sortFiles(q.Files)
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the package:\n got %+v\nwant %+v", q, p)
		}
	})
}

// sortFiles orders files by every field, so two packages holding the
// same files compare equal whatever order Encode left duplicate paths in.
func sortFiles(files []File) {
	key := func(f File) string { return fmt.Sprintf("%s\x00%o\x00%x\x00%v", f.Path, f.Mode, f.Content, f.Xattrs) }
	sort.Slice(files, func(i, j int) bool { return key(files[i]) < key(files[j]) })
}

func TestSignVerify(t *testing.T) {
	signer := keys.Shared.MustGet("alpine@alpinelinux.org-4a40")
	p := samplePackage()
	if err := Sign(p, signer); err != nil {
		t.Fatal(err)
	}
	raw, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	ring := keys.NewRing(signer.Public())
	got, keyName, err := VerifyRaw(raw, ring)
	if err != nil {
		t.Fatal(err)
	}
	if keyName != signer.Name || got.Name != "ntpd" {
		t.Fatalf("verified as %q, pkg %q", keyName, got.Name)
	}
}

func TestVerifyRejectsUntrustedSigner(t *testing.T) {
	evil := keys.Shared.MustGet("evil-signer")
	good := keys.Shared.MustGet("alpine@alpinelinux.org-4a40")
	p := samplePackage()
	if err := Sign(p, evil); err != nil {
		t.Fatal(err)
	}
	raw, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	ring := keys.NewRing(good.Public())
	if _, _, err := VerifyRaw(raw, ring); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsModifiedScript(t *testing.T) {
	signer := keys.Shared.MustGet("alpine@alpinelinux.org-4a40")
	p := samplePackage()
	if err := Sign(p, signer); err != nil {
		t.Fatal(err)
	}
	// An adversary modifies the installation script after signing: the
	// control segment changes, so the signature no longer matches.
	p.Scripts["post-install"] = "adduser -s /bin/sh -u 0 backdoor\n"
	raw, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	ring := keys.NewRing(signer.Public())
	if _, _, err := VerifyRaw(raw, ring); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("err = %v", err)
	}
}

func TestSignatureSurvivesReencode(t *testing.T) {
	// Re-encoding a decoded package must preserve signature validity:
	// that is what lets TSR cache and re-serve packages byte-identically.
	signer := keys.Shared.MustGet("alpine@alpinelinux.org-4a40")
	p := samplePackage()
	if err := Sign(p, signer); err != nil {
		t.Fatal(err)
	}
	raw1, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(raw1)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := Encode(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("decode/encode roundtrip changed bytes")
	}
}

func TestUncompressedSizeAndFileCount(t *testing.T) {
	p := samplePackage()
	want := int64(len("ELF...") + len("server pool.ntp.org\n"))
	if got := p.UncompressedSize(); got != want {
		t.Fatalf("UncompressedSize = %d, want %d", got, want)
	}
}

func TestEncodeRejectsRelativePath(t *testing.T) {
	p := &Package{Name: "x", Version: "1", Files: []File{{Path: "usr/bin/x"}}}
	if _, err := Encode(p); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v", err)
	}
}

func TestDataHashChangesWithContent(t *testing.T) {
	p := samplePackage()
	h1, err := p.DataHash()
	if err != nil {
		t.Fatal(err)
	}
	p.Files[0].Content = []byte("different")
	h2, err := p.DataHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("hash did not change with content")
	}
}

func TestDataHashChangesWithXattr(t *testing.T) {
	// Signature injection (sanitization) must change the data hash —
	// this is exactly why TSR must re-sign and regenerate the index.
	p := samplePackage()
	h1, _ := p.DataHash()
	p.Files[1].Xattrs = map[string][]byte{XattrIMA: []byte("sig")}
	h2, _ := p.DataHash()
	if h1 == h2 {
		t.Fatal("hash did not change with xattr")
	}
}

func TestScriptNamesSorted(t *testing.T) {
	p := &Package{
		Name: "x", Version: "1",
		Scripts: map[string]string{"pre-upgrade": "", "post-install": "", "pre-install": ""},
	}
	got := p.ScriptNames()
	want := []string{"post-install", "pre-install", "pre-upgrade"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %v", got)
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(name string, content []byte, script string) bool {
		if name == "" {
			return true
		}
		p := &Package{
			Name:    fmt.Sprintf("%x", name),
			Version: "1.0-r0",
			Scripts: map[string]string{"post-install": script},
			Files: []File{
				{Path: "/data/blob", Mode: 0o644, Content: content},
			},
		}
		raw, err := Encode(p)
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		if err != nil {
			return false
		}
		return got.Name == p.Name &&
			got.Scripts["post-install"] == script &&
			bytes.Equal(got.Files[0].Content, content)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRawControlSegmentMatchesControlBytes(t *testing.T) {
	p := samplePackage()
	raw, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	fromWire, err := RawControlSegment(raw)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := p.ControlBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromWire, direct) {
		t.Fatal("control segment bytes differ between Encode and ControlBytes")
	}
}

// Robustness: Decode never panics on arbitrary bytes.
func TestDecodeRobustnessProperty(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Decode(raw)
		_, _ = RawControlSegment(raw)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
