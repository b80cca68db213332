package index

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"tsr/internal/keys"
)

func sampleIndex() *Index {
	ix := &Index{Origin: "alpine-main", Sequence: 7}
	for i, name := range []string{"musl", "busybox", "openssl"} {
		e := Entry{
			Name:    name,
			Version: fmt.Sprintf("1.%d-r0", i),
			Size:    int64(1000 * (i + 1)),
			Depends: []string{"musl"},
		}
		if name == "musl" {
			e.Depends = nil
		}
		e.Hash = sha256.Sum256([]byte(name))
		ix.Add(e)
	}
	return ix
}

func TestAddKeepsSorted(t *testing.T) {
	ix := sampleIndex()
	want := []string{"busybox", "musl", "openssl"}
	if got := ix.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %v", got)
	}
}

func TestAddReplaces(t *testing.T) {
	ix := sampleIndex()
	e, _ := ix.Lookup("musl")
	e.Version = "2.0-r0"
	ix.Add(e)
	if len(ix.Entries) != 3 {
		t.Fatalf("entries = %d", len(ix.Entries))
	}
	got, err := ix.Lookup("musl")
	if err != nil || got.Version != "2.0-r0" {
		t.Fatalf("lookup = %+v, %v", got, err)
	}
}

func TestLookupMissing(t *testing.T) {
	ix := sampleIndex()
	if _, err := ix.Lookup("nothere"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	ix := sampleIndex()
	raw := ix.Encode()
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ix) {
		t.Fatalf("roundtrip mismatch:\n%+v\nvs\n%+v", got, ix)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := sampleIndex().Encode()
	b := sampleIndex().Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("Encode not deterministic")
	}
}

// decodeErrorCases are malformed indexes Decode must refuse with
// ErrFormat; FuzzIndexDecode starts from them too.
var decodeErrorCases = []string{
	"garbage",
	"origin = x\n",                        // missing sequence
	"sequence = 1\n",                      // missing origin
	"origin = x\nsequence = abc\n",        // bad sequence
	"origin = x\nsequence = 1\nweird = y", // unknown key
	"origin = x\nsequence = 1\npackage = a 1.0 12\n",        // short entry
	"origin = x\nsequence = 1\npackage = a 1.0 xx hash -\n", // bad size
	"origin = x\nsequence = 1\npackage = a 1.0 12 zzzz -\n", // bad hash
}

func TestDecodeErrors(t *testing.T) {
	for _, src := range decodeErrorCases {
		if _, err := Decode([]byte(src)); !errors.Is(err, ErrFormat) {
			t.Errorf("%q: err = %v", src, err)
		}
	}
}

func TestSignVerify(t *testing.T) {
	pair := keys.Shared.MustGet("index-signer")
	ix := sampleIndex()
	signed, err := Sign(ix, pair)
	if err != nil {
		t.Fatal(err)
	}
	ring := keys.NewRing(pair.Public())
	got, err := signed.Verify(ring)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sequence != 7 {
		t.Fatalf("sequence = %d", got.Sequence)
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	pair := keys.Shared.MustGet("index-signer")
	signed, err := Sign(sampleIndex(), pair)
	if err != nil {
		t.Fatal(err)
	}
	ring := keys.NewRing(pair.Public())
	// Replay attack body: bump the sequence without re-signing.
	tampered := signed.Clone()
	tampered.Raw = bytes.Replace(tampered.Raw, []byte("sequence = 7"), []byte("sequence = 9"), 1)
	if _, err := tampered.Verify(ring); !errors.Is(err, keys.ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsUnknownKey(t *testing.T) {
	pair := keys.Shared.MustGet("index-signer")
	signed, err := Sign(sampleIndex(), pair)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := signed.Verify(keys.NewRing()); !errors.Is(err, keys.ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
}

func TestDigestDistinguishesIndexes(t *testing.T) {
	pair := keys.Shared.MustGet("index-signer")
	s1, err := Sign(sampleIndex(), pair)
	if err != nil {
		t.Fatal(err)
	}
	ix2 := sampleIndex()
	ix2.Sequence = 8
	s2, err := Sign(ix2, pair)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Digest() == s2.Digest() {
		t.Fatal("digests collide across different indexes")
	}
	if s1.Digest() != s1.Clone().Digest() {
		t.Fatal("clone digest differs")
	}
}

func TestDiff(t *testing.T) {
	old := sampleIndex()
	new_ := sampleIndex()
	// change busybox, remove openssl, add zlib
	e, _ := new_.Lookup("busybox")
	e.Version = "1.99-r0"
	new_.Add(e)
	new_.Entries = new_.Entries[:2] // busybox, musl (drops openssl)
	new_.Add(Entry{Name: "zlib", Version: "1.2-r0", Size: 5, Hash: sha256.Sum256([]byte("zlib"))})

	added, changed, removed := Diff(old, new_)
	if !reflect.DeepEqual(added, []string{"zlib"}) {
		t.Fatalf("added = %v", added)
	}
	if !reflect.DeepEqual(changed, []string{"busybox"}) {
		t.Fatalf("changed = %v", changed)
	}
	if !reflect.DeepEqual(removed, []string{"openssl"}) {
		t.Fatalf("removed = %v", removed)
	}
}

func TestDiffHashOnlyChange(t *testing.T) {
	// Same version, different hash (e.g. after sanitization) counts as
	// changed.
	old := sampleIndex()
	new_ := sampleIndex()
	e, _ := new_.Lookup("musl")
	e.Hash = sha256.Sum256([]byte("other"))
	new_.Add(e)
	_, changed, _ := Diff(old, new_)
	if !reflect.DeepEqual(changed, []string{"musl"}) {
		t.Fatalf("changed = %v", changed)
	}
}

func TestDiffIdentical(t *testing.T) {
	a, c, r := Diff(sampleIndex(), sampleIndex())
	if len(a)+len(c)+len(r) != 0 {
		t.Fatalf("diff of identical = %v %v %v", a, c, r)
	}
}

func TestTotalSize(t *testing.T) {
	if got := sampleIndex().TotalSize(); got != 6000 {
		t.Fatalf("TotalSize = %d", got)
	}
}

func TestSignedETag(t *testing.T) {
	pair := keys.Shared.MustGet("index-signer")
	s1, err := Sign(sampleIndex(), pair)
	if err != nil {
		t.Fatal(err)
	}
	tag := s1.ETag()
	if len(tag) != 66 || tag[0] != '"' || tag[len(tag)-1] != '"' {
		t.Fatalf("ETag = %q, want a quoted 64-hex-char digest", tag)
	}
	if s1.Clone().ETag() != tag {
		t.Fatal("clone changed the ETag")
	}
	ix2 := sampleIndex()
	ix2.Sequence++
	s2, err := Sign(ix2, pair)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ETag() == tag {
		t.Fatal("different indexes share an ETag")
	}
}

func TestSignedSize(t *testing.T) {
	pair := keys.Shared.MustGet("index-signer")
	s, err := Sign(sampleIndex(), pair)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() <= int64(len(s.Raw)) {
		t.Fatalf("Size = %d, should include key name and signature", s.Size())
	}
}

func TestRoundtripProperty(t *testing.T) {
	f := func(origin string, seq uint64, names []string) bool {
		ix := &Index{Origin: "repo-" + fmt.Sprintf("%x", origin), Sequence: seq}
		for i, n := range names {
			name := fmt.Sprintf("pkg%x%d", n, i)
			ix.Add(Entry{
				Name:    name,
				Version: "1.0-r0",
				Size:    int64(i),
				Hash:    sha256.Sum256([]byte(name)),
			})
		}
		got, err := Decode(ix.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, ix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Robustness: Decode never panics on arbitrary bytes.
func TestDecodeRobustnessProperty(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Decode(raw)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
