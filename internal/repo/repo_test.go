package repo

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"tsr/internal/apk"
	"tsr/internal/keys"
)

func testRepo(t *testing.T) *Repository {
	t.Helper()
	return New("alpine-main", keys.Shared.MustGet("repo-index-signer"))
}

func pkg(name, version string, deps ...string) *apk.Package {
	return &apk.Package{
		Name:    name,
		Version: version,
		Depends: deps,
		Files:   []apk.File{{Path: "/usr/bin/" + name, Mode: 0o755, Content: []byte(name + version)}},
	}
}

func TestPublishAndFetch(t *testing.T) {
	r := testRepo(t)
	if err := r.Publish(pkg("musl", "1.1-r0"), pkg("zlib", "1.2-r0", "musl")); err != nil {
		t.Fatal(err)
	}
	raw, err := r.Fetch("musl")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := apk.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "musl" {
		t.Fatalf("decoded = %s", decoded.Name)
	}
	if _, err := r.Fetch("missing"); !errors.Is(err, ErrNoPackage) {
		t.Fatalf("err = %v", err)
	}
}

func TestIndexTracksPublications(t *testing.T) {
	r := testRepo(t)
	if r.SignedIndex() != nil {
		t.Fatal("index before first publish")
	}
	if err := r.Publish(pkg("musl", "1.1-r0")); err != nil {
		t.Fatal(err)
	}
	ix := r.Index()
	if ix.Sequence != 1 || len(ix.Entries) != 1 {
		t.Fatalf("index = %+v", ix)
	}
	// Version update: replaces the entry, bumps the sequence.
	if err := r.Publish(pkg("musl", "1.2-r0")); err != nil {
		t.Fatal(err)
	}
	ix = r.Index()
	if ix.Sequence != 2 || len(ix.Entries) != 1 {
		t.Fatalf("index = %+v", ix)
	}
	e, err := ix.Lookup("musl")
	if err != nil || e.Version != "1.2-r0" {
		t.Fatalf("entry = %+v, %v", e, err)
	}
}

func TestIndexEntryMatchesWire(t *testing.T) {
	r := testRepo(t)
	if err := r.Publish(pkg("musl", "1.1-r0")); err != nil {
		t.Fatal(err)
	}
	raw, err := r.Fetch("musl")
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Index().Lookup("musl")
	if err != nil {
		t.Fatal(err)
	}
	if e.Size != int64(len(raw)) {
		t.Fatalf("size = %d, want %d", e.Size, len(raw))
	}
	if e.Hash != sha256.Sum256(raw) {
		t.Fatal("hash mismatch")
	}
}

func TestSignedIndexVerifies(t *testing.T) {
	r := testRepo(t)
	if err := r.Publish(pkg("musl", "1.1-r0")); err != nil {
		t.Fatal(err)
	}
	signed := r.SignedIndex()
	ring := keys.NewRing(r.signer.Public())
	ix, err := signed.Verify(ring)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Origin != "alpine-main" {
		t.Fatalf("origin = %q", ix.Origin)
	}
}

func TestPublishRaw(t *testing.T) {
	r := testRepo(t)
	raw := []byte("opaque sanitized package bytes")
	if err := r.PublishRaw("custom", "2.0-r1", []string{"musl"}, raw); err != nil {
		t.Fatal(err)
	}
	got, err := r.Fetch("custom")
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("fetch = %v, %v", got, err)
	}
	e, err := r.Index().Lookup("custom")
	if err != nil || e.Version != "2.0-r1" || e.Depends[0] != "musl" {
		t.Fatalf("entry = %+v, %v", e, err)
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	r := testRepo(t)
	if err := r.Publish(pkg("musl", "1.1-r0")); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	seqBefore := mustDecodeSeq(t, snap)
	v1 := bytes.Clone(snap.Packages["musl"])
	// Later publication, including a new version of a package whose
	// bytes the snapshot shares, must not affect the snapshot.
	if err := r.Publish(pkg("zlib", "1.2-r0"), pkg("musl", "1.2-r0")); err != nil {
		t.Fatal(err)
	}
	if got := mustDecodeSeq(t, snap); got != seqBefore {
		t.Fatalf("snapshot sequence changed: %d -> %d", seqBefore, got)
	}
	if len(snap.Packages) != 1 {
		t.Fatalf("snapshot packages = %d", len(snap.Packages))
	}
	if !bytes.Equal(snap.Packages["musl"], v1) {
		t.Fatal("publishing musl 1.2 changed the bytes an earlier snapshot holds")
	}
	if now, _ := r.Fetch("musl"); bytes.Equal(now, v1) {
		t.Fatal("the repository still serves musl 1.1")
	}
}

func mustDecodeSeq(t *testing.T, s *Snapshot) uint64 {
	t.Helper()
	ring := keys.NewRing(keys.Shared.MustGet("repo-index-signer").Public())
	ix, err := s.Signed.Verify(ring)
	if err != nil {
		t.Fatal(err)
	}
	return ix.Sequence
}
