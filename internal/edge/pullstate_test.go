package edge

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// A tier's pull state — each package's chunk manifest and each name's
// diff base — lives in the store that holds the package bytes, so it
// survives a restart and leaves with the bytes it describes.

// bumpBig publishes version of bigapp at the origin.
func bumpBig(t *testing.T, w *edgeWorld, version string) {
	t.Helper()
	w.publish(t, bigEdgePkg("bigapp", version, 16, 32<<10))
	if _, err := w.tenant.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaRestartDiffsAgainstStoredBase: a replica reopened on the
// same disk store (LoadState) pulls the next version differentially
// against the base and manifest its previous life stored; a lie planted
// in that stored manifest shows it is the one the pull uses.
func TestReplicaRestartDiffsAgainstStoredBase(t *testing.T) {
	ctx := context.Background()
	w := newEdgeWorld(t)
	dir := t.TempDir()
	// restart opens a fresh replica on dir, syncs it and pulls bigapp.
	restart := func() (*Replica, []byte) {
		t.Helper()
		st, err := store.OpenFS(dir, store.FSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, Cache: st, PersistIndex: true, TrustRing: w.trust()}
		if err := rep.LoadState(); err != nil && !errors.Is(err, ErrNoState) {
			t.Fatal(err)
		}
		if err := rep.SyncCtx(ctx); err != nil {
			t.Fatal(err)
		}
		got, err := rep.FetchPackageCtx(ctx, "bigapp")
		if err != nil {
			t.Fatal(err)
		}
		if !entryOf(t, rep, "bigapp").Matches(got) {
			t.Fatal("the edge returned bytes that do not match the signed entry")
		}
		return rep, got
	}
	bumpBig(t, w, "1.0-r0")
	restart() // cold: a full pull
	bumpBig(t, w, "2.0-r0")
	rep, v2 := restart()
	if s := rep.Stats(); s.DiffPulls != 1 || s.DiffFallbacks != 0 {
		t.Fatalf("stats %+v: the restarted edge did not diff against its stored base", s)
	}
	old := entryOf(t, rep, "bigapp")
	if storedManifest(t, rep.store(), old.Hash) == nil {
		t.Fatal("the differential pull stored no manifest")
	}

	bumpBig(t, w, "3.0-r0")
	keepPulled(rep.store(), "bigapp", old, v2, lyingBaseFor(t, w, "bigapp", v2, old), true)
	rep, _ = restart()
	if s := rep.Stats(); s.DiffPulls != 0 || s.DiffFallbacks != 1 {
		t.Fatalf("stats %+v: the restarted edge did not diff against the manifest it stored", s)
	}
}

// TestClientRestartDiffsAgainstStoredBase: a new FailoverClient over
// the PkgCache of an earlier one pulls the next version differentially
// against the base and manifest the earlier client stored; a lie
// planted in that stored manifest shows it is the one the pull uses.
func TestClientRestartDiffsAgainstStoredBase(t *testing.T) {
	w := newEdgeWorld(t)
	pkgs := store.NewMem()
	// restart builds a fresh client over pkgs and fetches bigapp.
	restart := func() (*FailoverClient, []byte) {
		t.Helper()
		c := newClient(w, Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: w.tenant})
		c.PkgCache = pkgs
		got, err := c.FetchPackage("bigapp")
		if err != nil {
			t.Fatal(err)
		}
		return c, got
	}
	bumpBig(t, w, "1.0-r0")
	restart() // cold: a full fetch
	bumpBig(t, w, "2.0-r0")
	c, v2 := restart()
	if s := c.Stats(); s.DiffFetches != 1 || s.DiffFallbacks != 0 {
		t.Fatalf("stats %+v: the new client did not diff against the stored base", s)
	}
	old, ok := baseOf(pkgs, "bigapp")
	if !ok || storedManifest(t, pkgs, old.Hash) == nil {
		t.Fatal("the differential fetch stored no base record or manifest")
	}

	bumpBig(t, w, "3.0-r0")
	keepPulled(pkgs, "bigapp", old, v2, lyingBaseFor(t, w, "bigapp", v2, old), false)
	c, _ = restart()
	if s := c.Stats(); s.DiffFetches != 0 || s.DiffFallbacks != 1 || s.RejectedBytes != 0 {
		t.Fatalf("stats %+v: the new client did not diff against the manifest stored", s)
	}
}

// versionKey names, in a request context, the version of every package
// a versioned upstream serves.
type versionKey struct{}

// versioned is an upstream holding several versions of one package:
// each request is answered from the version its context names, so
// concurrent pulls of different versions each see their own.
type versioned map[string][]byte

func (v versioned) pkg(ctx context.Context) []byte { return v[ctx.Value(versionKey{}).(string)] }

func (v versioned) FetchIndexTaggedCtx(context.Context) (*index.Signed, string, error) {
	return nil, "", errLie
}

func (v versioned) FetchIndexDeltaCtx(context.Context, string) (*index.Delta, error) {
	return nil, errLie
}

func (v versioned) FetchPackageCtx(ctx context.Context, name string) ([]byte, error) {
	return v.pkg(ctx), nil
}

func (v versioned) FetchChunkManifestCtx(ctx context.Context, name string) (*store.ChunkManifest, error) {
	return store.BuildManifest(v.pkg(ctx)), nil
}

func (v versioned) FetchPackageRangeCtx(ctx context.Context, name string, off, length int64) ([]byte, error) {
	return tsr.SliceRange(name, v.pkg(ctx), off, length)
}

// TestConcurrentPullsOfTwoVersions: at an edge and at a client,
// concurrent pulls of two versions of one name — two readers of two
// generations — each get verified bytes, and the state the tier
// stores describes what it verified (run under -race).
func TestConcurrentPullsOfTwoVersions(t *testing.T) {
	const rounds = 8
	rng := rand.New(rand.NewSource(41))
	base := make([]byte, 192<<10)
	rng.Read(base)
	up := versioned{}
	entries := make(map[string]index.Entry)
	for i := 0; i <= 2*rounds; i++ {
		v := fmt.Sprint(i)
		b := bytes.Clone(base)
		if i > 0 {
			off := rng.Intn(len(b) - 4<<10)
			rng.Read(b[off : off+4<<10])
		}
		up[v] = b
		entries[v] = index.Entry{Name: "app", Size: int64(len(b)), Hash: sha256.Sum256(b)}
	}
	rep := &Replica{RepoID: "r", Origin: up}
	c := &FailoverClient{Endpoints: []Endpoint{{Name: "up", Fetcher: up}}, PkgCache: store.NewMem()}
	for _, tier := range []struct {
		name  string
		st    store.Store
		fetch func(ctx context.Context, entry index.Entry) ([]byte, error)
		diffs func() int64
	}{
		{"edge", rep.store(), func(ctx context.Context, e index.Entry) ([]byte, error) { return rep.fetchEntry(ctx, "app", e) },
			func() int64 { return rep.Stats().DiffPulls }},
		{"client", c.PkgCache, func(ctx context.Context, e index.Entry) ([]byte, error) { return c.fetchPackageVerified(ctx, "app", e) },
			func() int64 { return c.Stats().DiffFetches }},
	} {
		t.Run(tier.name, func(t *testing.T) {
			pull := func(v string) error {
				got, err := tier.fetch(context.WithValue(context.Background(), versionKey{}, v), entries[v])
				if err == nil && !entries[v].Matches(got) {
					err = fmt.Errorf("version %s: bytes do not match the entry", v)
				}
				return err
			}
			if err := pull("0"); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rounds; r++ {
				pair := []string{fmt.Sprint(2*r + 1), fmt.Sprint(2*r + 2)}
				errs := make(chan error, 4)
				var wg sync.WaitGroup
				for i := range 4 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := pull(pair[i%2]); err != nil {
							errs <- err
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				last, ok := baseOf(tier.st, "app")
				if !ok || (last.Hash != entries[pair[0]].Hash && last.Hash != entries[pair[1]].Hash) {
					t.Fatalf("round %d: the base record names neither version pulled", r)
				}
			}
			for v, raw := range up {
				if m := storedManifest(t, tier.st, entries[v].Hash); m != nil && !describes(m, raw) {
					t.Fatalf("the stored manifest of version %s does not describe its bytes", v)
				}
			}
			if tier.diffs() == 0 {
				t.Fatal("no pull diffed against a stored base")
			}
		})
	}
}

// orphanManifests lists the manifests st keeps beside no package bytes,
// and counts the manifests it keeps.
func orphanManifests(st store.Store) (orphans []string, manifests int) {
	_ = st.Iterate(func(info store.Info) bool {
		if pkg, ok := strings.CutSuffix(info.Key, tsr.ManifestSuffix); ok {
			manifests++
			if _, err := st.Stat(pkg); err != nil {
				orphans = append(orphans, info.Key)
			}
		}
		return true
	})
	return orphans, manifests
}

// TestNoManifestOutlivesItsPackage: the origin's refresh retires a
// stored manifest with the sanitized bytes it describes, and the
// edge's publish prunes one with its package once the package's
// generation leaves the retained window.
func TestNoManifestOutlivesItsPackage(t *testing.T) {
	ctx := context.Background()
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	var first index.Entry
	for i := 1; i <= index.HistoryWindow+2; i++ {
		w.publish(t, bigEdgePkg("bigapp", fmt.Sprintf("%d.0-r0", i), 4, 16<<10))
		if _, err := w.tenant.Refresh(); err != nil {
			t.Fatal(err)
		}
		if err := rep.SyncCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			first = entryOf(t, rep, "bigapp")
		}
		// Each version's manifest is stored at both tiers: cut by the
		// origin for the edge's pull, then stored by the edge's
		// differential pull or cut by its /chunks.
		if _, err := rep.FetchPackageCtx(ctx, "bigapp"); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.FetchChunkManifestCtx(ctx, "bigapp"); err != nil {
			t.Fatal(err)
		}
	}
	for tier, st := range map[string]store.Store{"origin": w.store, "edge": rep.store()} {
		orphans, n := orphanManifests(st)
		if len(orphans) > 0 {
			t.Errorf("%s: manifests outlive their packages: %v", tier, orphans)
		}
		if n == 0 {
			t.Errorf("%s: stores no manifest", tier)
		}
	}
	if storedManifest(t, rep.store(), first.Hash) != nil {
		t.Error("edge: the first version's manifest outlived the retained window")
	}
}

// FuzzDecodeReplicaState asserts the edge journal decoder's contract on
// arbitrary bytes (the journal is read back from an untrusted store):
// no panic, the memory decoding costs is bounded by the input's length,
// and a decoded state re-encodes to a state that decodes the same.
func FuzzDecodeReplicaState(f *testing.F) {
	signed, err := index.Sign(&index.Index{Origin: "fuzz", Sequence: 1}, keys.Shared.MustGet("edge-fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeReplicaState(signed))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 'x'})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := decodeReplicaState(raw)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 2*uint64(len(raw))+16<<10 {
			t.Fatalf("decodeReplicaState allocated %d bytes for %d input bytes", n, len(raw))
		}
		if err != nil {
			return
		}
		again, err := decodeReplicaState(encodeReplicaState(got))
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if again.KeyName != got.KeyName || !bytes.Equal(again.Sig, got.Sig) || !bytes.Equal(again.Raw, got.Raw) {
			t.Fatal("re-encoded state decodes differently")
		}
	})
}
