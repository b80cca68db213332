package edge

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"testing"

	"tsr/internal/index"
	"tsr/internal/netsim"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// storedManifest is the manifest st keeps beside the bytes of hash, or
// nil when it keeps none.
func storedManifest(t *testing.T, st store.Store, hash [32]byte) *store.ChunkManifest {
	t.Helper()
	blob, err := st.Get(cacheKey(hash) + tsr.ManifestSuffix)
	if err != nil {
		return nil
	}
	_, m, err := tsr.DecodeManifestBlob(blob)
	if err != nil {
		t.Fatalf("stored manifest: %v", err)
	}
	return m
}

// manifestGzipped reports whether the manifest blob st keeps beside the
// bytes of hash carries a gzip after its body.
func manifestGzipped(t *testing.T, st store.Store, hash [32]byte) bool {
	t.Helper()
	blob, err := st.Get(cacheKey(hash) + tsr.ManifestSuffix)
	if err != nil || len(blob) < 8 {
		t.Fatalf("no stored manifest blob (%v)", err)
	}
	return binary.BigEndian.Uint64(blob) < uint64(len(blob)-8)
}

// baseOf is the entry st's base record for name names.
func baseOf(st store.Store, name string) (index.Entry, bool) {
	rec, err := st.Get(baseKey(name))
	if err != nil {
		return index.Entry{}, false
	}
	return decodeBaseRecord(rec)
}

// describes reports whether every chunk of m hashes to its entry over
// raw.
func describes(m *store.ChunkManifest, raw []byte) bool {
	if m == nil || m.TotalSize != int64(len(raw)) || m.Valid() != nil {
		return false
	}
	for _, c := range m.Chunks {
		if sha256.Sum256(raw[c.Offset:c.Offset+c.Size]) != c.Hash {
			return false
		}
	}
	return true
}

// TestDiffPullsCarryManifests: a differential pull stores the manifest
// it reassembled from, checked, beside the bytes. The edge's /chunks
// request right after its own pull is then served from the very
// manifest the origin sent (nothing read or re-cut at the edge), and
// the next bump diffs, at the client and at the edge, against the base
// manifests those pulls stored.
func TestDiffPullsCarryManifests(t *testing.T) {
	ctx := context.Background()
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.Europe, TrustRing: w.trust()}
	c := newClient(w, Endpoint{Name: "edge-eu", Continent: netsim.Europe, Fetcher: rep})
	c.PkgCache = store.NewMem()
	bump := func(version string) {
		t.Helper()
		w.publish(t, bigEdgePkg("bigapp", version, 16, 32<<10))
		if _, err := w.tenant.Refresh(); err != nil {
			t.Fatal(err)
		}
		if err := rep.SyncCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.FetchIndex(); err != nil {
			t.Fatal(err)
		}
	}

	bump("1.0-r0")
	if _, err := c.FetchPackage("bigapp"); err != nil { // cold: full fetches
		t.Fatal(err)
	}
	for gen, version := range []string{"2.0-r0", "3.0-r0"} {
		bump(version)
		got, err := c.FetchPackage("bigapp")
		if err != nil {
			t.Fatal(err)
		}
		entry := entryOf(t, rep, "bigapp")
		if !entry.Matches(got) {
			t.Fatalf("%s: fetched bytes do not match the signed entry", version)
		}
		if s := rep.Stats(); s.DiffPulls != int64(gen+1) || s.DiffFallbacks != 0 {
			t.Fatalf("%s: edge stats %+v, want %d differential pulls", version, s, gen+1)
		}
		if s := c.Stats(); s.DiffFetches != int64(gen+1) || s.DiffFallbacks != 0 {
			t.Fatalf("%s: client stats %+v, want %d differential fetches", version, s, gen+1)
		}
		origin, err := w.tenant.FetchChunkManifestCtx(ctx, "bigapp")
		if err != nil {
			t.Fatal(err)
		}
		atEdge := storedManifest(t, rep.store(), entry.Hash)
		if !reflect.DeepEqual(atEdge, origin) {
			t.Fatalf("%s: the edge holds a manifest other than the one the origin sent", version)
		}
		reads := rep.Stats().PackageReads
		served, err := rep.FetchChunkManifestCtx(ctx, "bigapp")
		if err != nil || !reflect.DeepEqual(served, origin) || rep.Stats().PackageReads != reads {
			t.Fatalf("%s: the edge's /chunks answer is not the stored manifest (err %v)", version, err)
		}
		if last, ok := baseOf(c.PkgCache, "bigapp"); !ok || last.Hash != entry.Hash || !describes(storedManifest(t, c.PkgCache, entry.Hash), got) {
			t.Fatalf("%s: the client kept no manifest that describes the fetched bytes", version)
		}
		if !manifestGzipped(t, rep.store(), entry.Hash) || manifestGzipped(t, c.PkgCache, entry.Hash) {
			t.Fatalf("%s: the edge, which serves /chunks, must keep the manifest's gzip, and the client, which does not, only its body", version)
		}
	}
}

// lyingBase is a manifest for size bytes whose first chunk claims the
// hash of claim, a chunk of the wanted version the base does not hold,
// and whose remaining chunks tile the rest under zero hashes: a base
// manifest that describes its bytes wrongly.
func lyingBase(size int64, claim store.ManifestChunk) *store.ChunkManifest {
	m := &store.ChunkManifest{TotalSize: size}
	m.Chunks = append(m.Chunks, store.ManifestChunk{Span: store.Span{Size: claim.Size}, Hash: claim.Hash})
	for off := claim.Size; off < size; off += store.MaxChunkSize {
		m.Chunks = append(m.Chunks, store.ManifestChunk{Span: store.Span{Offset: off, Size: min(store.MaxChunkSize, size-off)}})
	}
	return m
}

// TestLyingBaseManifestCostsOnlyAFallback: a stored base manifest that
// makes a differential pull copy the wrong bytes costs a fall back to
// a full fetch — at the edge and at the client — and never a wrong
// byte; the failed pull stores no manifest for the new version.
func TestLyingBaseManifestCostsOnlyAFallback(t *testing.T) {
	ctx := context.Background()
	w := newEdgeWorld(t)
	w.publish(t, bigEdgePkg("bigapp", "1.0-r0", 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Continent: netsim.Europe, TrustRing: w.trust()}
	if err := rep.SyncCtx(ctx); err != nil {
		t.Fatal(err)
	}
	c := newClient(w, Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: w.tenant})
	c.PkgCache = store.NewMem()
	v1, err := rep.FetchPackageCtx(ctx, "bigapp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchPackage("bigapp"); err != nil {
		t.Fatal(err)
	}
	old := entryOf(t, rep, "bigapp")

	w.publish(t, bigEdgePkg("bigapp", "2.0-r0", 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchIndex(); err != nil {
		t.Fatal(err)
	}
	entry := entryOf(t, rep, "bigapp")
	up, err := w.tenant.FetchChunkManifestCtx(ctx, "bigapp")
	if err != nil {
		t.Fatal(err)
	}
	honest := store.BuildManifest(v1)
	held := make(map[[32]byte]bool)
	for _, ch := range honest.Chunks {
		held[ch.Hash] = true
	}
	var claim store.ManifestChunk
	for _, ch := range up.Chunks {
		if !held[ch.Hash] {
			claim = ch
			break
		}
	}
	if claim.Size == 0 {
		t.Fatal("fixture: the bump changed no chunk")
	}
	lie := lyingBase(old.Size, claim)
	if err := lie.Valid(); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	lie.PackageHash = old.Hash
	keepPulled(rep.store(), "bigapp", old, v1, lie, true)
	keepPulled(c.PkgCache, "bigapp", old, v1, lie, false)

	got, err := rep.FetchPackageCtx(ctx, "bigapp")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Matches(got) {
		t.Fatal("the edge returned bytes that do not match the signed entry")
	}
	if s := rep.Stats(); s.DiffPulls != 0 || s.DiffFallbacks != 1 {
		t.Fatalf("edge stats %+v, want the differential pull to fall back", s)
	}
	if storedManifest(t, rep.store(), entry.Hash) != nil {
		t.Fatal("the edge kept a manifest from a pull that failed its check")
	}

	got, err = c.FetchPackage("bigapp")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Matches(got) {
		t.Fatal("the client returned bytes that do not match the signed entry")
	}
	if s := c.Stats(); s.DiffFetches != 0 || s.DiffFallbacks != 1 || s.RejectedBytes != 0 {
		t.Fatalf("client stats %+v, want the differential fetch to fall back", s)
	}
	if last, ok := baseOf(c.PkgCache, "bigapp"); !ok || last.Hash != entry.Hash || storedManifest(t, c.PkgCache, entry.Hash) != nil {
		t.Fatal("the client kept a manifest from a fetch that failed its check")
	}
}

// TestEvictedBaseIsForgotten: once the client's cache has dropped the
// bytes of its diff base, the client drops that base's record and
// manifest, and fetches the next version whole.
func TestEvictedBaseIsForgotten(t *testing.T) {
	w := newEdgeWorld(t)
	c := newClient(w, Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: w.tenant})
	c.PkgCache = store.NewMem()
	for _, version := range []string{"1.0-r0", "2.0-r0"} {
		w.publish(t, bigEdgePkg("bigapp", version, 16, 32<<10))
		if _, err := w.tenant.Refresh(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.FetchIndex(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.FetchPackage("bigapp"); err != nil {
			t.Fatal(err)
		}
	}
	base, ok := baseOf(c.PkgCache, "bigapp")
	if !ok || storedManifest(t, c.PkgCache, base.Hash) == nil {
		t.Fatal("fixture: the second fetch kept no manifest")
	}
	if err := c.PkgCache.Delete(cacheKey(base.Hash)); err != nil {
		t.Fatal(err)
	}

	w.publish(t, bigEdgePkg("bigapp", "3.0-r0", 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchIndex(); err != nil {
		t.Fatal(err)
	}
	entry, err := c.entryFor(context.Background(), "bigapp")
	if err != nil {
		t.Fatal(err)
	}
	if old, m := storedBase(c.PkgCache, "bigapp", entry); old != nil || m != nil {
		t.Fatal("an evicted base still served as a diff base")
	}
	if _, ok := baseOf(c.PkgCache, "bigapp"); ok || storedManifest(t, c.PkgCache, base.Hash) != nil {
		t.Fatal("the client still holds the record of an evicted base")
	}
	if _, err := c.FetchPackage("bigapp"); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.DiffFetches != 1 {
		t.Fatalf("client stats %+v, want only the second version diffed", s)
	}
}
