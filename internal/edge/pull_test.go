package edge

import (
	"context"
	"crypto/sha256"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"tsr/internal/index"
	"tsr/internal/netsim"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// The ways an upstream can lie about a package, each turned on alone.
const (
	noLie            = iota
	unrootedManifest // a manifest whose package hash is not the entry's
	lyingRange       // ranges whose bytes do not hash to their chunks
	wrongReassembly  // a self-consistent manifest and ranges of other bytes
	wrongFull        // no manifest, and a full body of other bytes
	failedFull       // no manifest, and no full body
)

var errLie = errors.New("upstream fails on purpose")

// liar fronts the origin and tells one lie, chosen by lie, about
// every package. It serves no byte ranges: rangedLiar adds them.
type liar struct {
	origin *tsr.Repo
	lie    atomic.Int32
}

// flipped is raw with its middle byte flipped: bytes of the right size
// that do not hash to the entry.
func flipped(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	out[len(out)/2] ^= 0xFF
	return out
}

func (l *liar) FetchIndexTaggedCtx(ctx context.Context) (*index.Signed, string, error) {
	return l.origin.FetchIndexTaggedCtx(ctx)
}

func (l *liar) FetchIndexDeltaCtx(ctx context.Context, since string) (*index.Delta, error) {
	return l.origin.FetchIndexDeltaCtx(ctx, since)
}

func (l *liar) FetchPackageCtx(ctx context.Context, name string) ([]byte, error) {
	raw, err := l.origin.FetchPackageCtx(ctx, name)
	switch l.lie.Load() {
	case wrongFull:
		return flipped(raw), err
	case failedFull:
		return nil, errLie
	}
	return raw, err
}

func (l *liar) FetchChunkManifestCtx(ctx context.Context, name string) (*store.ChunkManifest, error) {
	m, err := l.origin.FetchChunkManifestCtx(ctx, name)
	if err != nil {
		return nil, err
	}
	switch l.lie.Load() {
	case unrootedManifest:
		cp := *m
		cp.PackageHash = [32]byte{}
		return &cp, nil
	case wrongReassembly:
		raw, err := l.origin.FetchPackageCtx(ctx, name)
		if err != nil {
			return nil, err
		}
		other := store.BuildManifest(flipped(raw))
		other.PackageHash = m.PackageHash
		return other, nil
	case wrongFull, failedFull:
		return nil, errLie
	}
	return m, nil
}

type rangedLiar struct{ *liar }

func (l rangedLiar) FetchPackageRangeCtx(ctx context.Context, name string, off, length int64) ([]byte, error) {
	switch l.lie.Load() {
	case lyingRange:
		b, err := l.origin.FetchPackageRangeCtx(ctx, name, off, length)
		if err != nil {
			return nil, err
		}
		return flipped(b), nil
	case wrongReassembly:
		raw, err := l.origin.FetchPackageCtx(ctx, name)
		if err != nil {
			return nil, err
		}
		return tsr.SliceRange(name, flipped(raw), off, length)
	}
	return l.origin.FetchPackageRangeCtx(ctx, name, off, length)
}

// The ways a tier's own store can hold a bad diff base, each planted
// alone after the bump, in both tiers' stores.
const (
	goodBase        = iota
	lyingManifest   // a base manifest rooted in the base whose chunk hashes lie
	garbageManifest // a base manifest that does not decode
	otherManifest   // a base manifest rooted in another hash
	malformedRecord // a base record that does not decode
	danglingRecord  // a base record whose bytes are gone
)

// plantBase puts the bad base kind into st, which holds v1 (entry old)
// as name's base.
func plantBase(t *testing.T, w *edgeWorld, st store.Store, kind int, name string, v1 []byte, old index.Entry) {
	t.Helper()
	manifestKey := cacheKey(old.Hash) + tsr.ManifestSuffix
	switch kind {
	case lyingManifest:
		keepPulled(st, name, old, v1, lyingBaseFor(t, w, name, v1, old))
	case garbageManifest:
		_ = st.Put(manifestKey, []byte("\x00\x00\x00\x00\x00\x00\x00\x03{]}"))
	case otherManifest:
		m := store.BuildManifest(v1)
		m.PackageHash = sha256.Sum256([]byte("another package"))
		_ = st.Put(manifestKey, tsr.EncodeManifestBlob(name, m))
	case malformedRecord:
		_ = st.Put(baseKey(name), []byte("not a base record"))
	case danglingRecord:
		_ = st.Delete(cacheKey(old.Hash))
	}
}

// pullCounts are one pull's marks on a tier's counters.
type pullCounts struct{ diffs, fallbacks, third int64 }

// TestPullRefusesLyingUpstreams runs the one pull both tiers share
// through the replica's pull-through and the client's fetch, against
// an upstream that lies in one way per row, after a version bump that
// leaves both tiers holding the previous version as their diff base.
// Other rows plant a bad diff base in both tiers' stores instead: a
// base manifest that fails to decode or is rooted in another hash is
// dropped and the base re-cut, so the pull still diffs; one whose chunk
// hashes lie costs a counted fallback; and a base record that is
// malformed or names bytes that are gone costs a full fetch.
// The rows share one origin, each with a package and tiers of its own.
// Whatever the lie, only bytes that match the signed entry come back,
// no manifest of a failed differential attempt is kept, and each tier
// counts what the pull did: the edge its DiffPulls, DiffFallbacks and
// OriginPackages, the client its DiffFetches, DiffFallbacks and
// RejectedBytes.
func TestPullRefusesLyingUpstreams(t *testing.T) {
	w := newEdgeWorld(t)
	for _, tc := range []struct {
		name     string
		lie      int32
		noRanges bool // the upstream serves no byte ranges
		base     int  // the bad diff base both tiers hold
		fails    bool
		edge     pullCounts // DiffPulls, DiffFallbacks, OriginPackages
		client   pullCounts // DiffFetches, DiffFallbacks, RejectedBytes
	}{
		{name: "honest", edge: pullCounts{1, 0, 0}, client: pullCounts{1, 0, 0}},
		{name: "manifest not rooted in the entry", lie: unrootedManifest, edge: pullCounts{0, 1, 1}, client: pullCounts{0, 1, 0}},
		{name: "lying range", lie: lyingRange, edge: pullCounts{0, 1, 1}, client: pullCounts{0, 1, 0}},
		{name: "lying base manifest", base: lyingManifest, edge: pullCounts{0, 1, 1}, client: pullCounts{0, 1, 0}},
		{name: "garbage base manifest", base: garbageManifest, edge: pullCounts{1, 0, 0}, client: pullCounts{1, 0, 0}},
		{name: "base manifest rooted in another hash", base: otherManifest, edge: pullCounts{1, 0, 0}, client: pullCounts{1, 0, 0}},
		{name: "malformed base record", base: malformedRecord, edge: pullCounts{0, 0, 1}, client: pullCounts{0, 0, 0}},
		{name: "dangling base record", base: danglingRecord, edge: pullCounts{0, 0, 1}, client: pullCounts{0, 0, 0}},
		{name: "reassembled bytes do not match", lie: wrongReassembly, edge: pullCounts{0, 1, 1}, client: pullCounts{0, 1, 0}},
		{name: "full fetch with wrong bytes", lie: wrongFull, fails: true, edge: pullCounts{0, 1, 1}, client: pullCounts{0, 1, 1}},
		{name: "full fetch fails", lie: failedFull, fails: true, edge: pullCounts{0, 1, 0}, client: pullCounts{0, 1, 0}},
		{name: "no ranges served", noRanges: true, edge: pullCounts{0, 1, 1}, client: pullCounts{0, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			name := strings.ReplaceAll(tc.name, " ", "-")
			bump := func(version string) {
				t.Helper()
				w.publish(t, bigEdgePkg(name, version, 8, 32<<10))
				if _, err := w.tenant.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			bump("1.0-r0")
			l := &liar{origin: w.tenant}
			var up Origin = rangedLiar{l}
			if tc.noRanges {
				up = l
			}
			rep := &Replica{RepoID: w.tenant.ID, Origin: up, Continent: netsim.Europe, TrustRing: w.trust()}
			if err := rep.SyncCtx(ctx); err != nil {
				t.Fatal(err)
			}
			c := newClient(w, Endpoint{Name: "liar", Continent: netsim.Europe, Fetcher: up})
			c.PkgCache = store.NewMem()
			v1, err := rep.FetchPackageCtx(ctx, name) // cold: full pulls
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.FetchPackage(name); err != nil {
				t.Fatal(err)
			}
			old := entryOf(t, rep, name)

			bump("2.0-r0")
			if err := rep.SyncCtx(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := c.FetchIndex(); err != nil {
				t.Fatal(err)
			}
			entry := entryOf(t, rep, name)
			plantBase(t, w, rep.store(), tc.base, name, v1, old)
			plantBase(t, w, c.PkgCache, tc.base, name, v1, old)
			l.lie.Store(tc.lie)
			edgeBefore, clientBefore := rep.Stats(), c.Stats()

			// Each tier is checked whatever the other did, so a fault in
			// the shared pull shows in both.
			check := func(tier string, got []byte, err error) {
				t.Helper()
				switch {
				case tc.fails && (err == nil || got != nil):
					t.Errorf("%s: got %d bytes and err %v, want only an error", tier, len(got), err)
				case !tc.fails && err != nil:
					t.Errorf("%s: %v", tier, err)
				case !tc.fails && !entry.Matches(got):
					t.Errorf("%s: returned bytes that do not match the signed entry", tier)
				}
			}
			got, err := rep.FetchPackageCtx(ctx, name)
			check("edge", got, err)
			s := rep.Stats()
			if d := (pullCounts{s.DiffPulls - edgeBefore.DiffPulls, s.DiffFallbacks - edgeBefore.DiffFallbacks, s.OriginPackages - edgeBefore.OriginPackages}); d != tc.edge {
				t.Errorf("edge counted {DiffPulls DiffFallbacks OriginPackages} = %v, want %v", d, tc.edge)
			}
			if _, err := rep.store().Get(cacheKey(entry.Hash)); (err == nil) == tc.fails {
				t.Errorf("edge cache holds the package: %v, want %v", err == nil, !tc.fails)
			}
			if m := storedManifest(t, rep.store(), entry.Hash); (m != nil) != (tc.edge.diffs == 1) {
				t.Error("the edge's stored manifest disagrees with whether the pull diffed")
			}

			got, err = c.FetchPackage(name)
			check("client", got, err)
			cs := c.Stats()
			if d := (pullCounts{cs.DiffFetches - clientBefore.DiffFetches, cs.DiffFallbacks - clientBefore.DiffFallbacks, cs.RejectedBytes - clientBefore.RejectedBytes}); d != tc.client {
				t.Errorf("client counted {DiffFetches DiffFallbacks RejectedBytes} = %v, want %v", d, tc.client)
			}
			if last, _ := baseOf(c.PkgCache, name); !tc.fails && (last.Hash != entry.Hash || (storedManifest(t, c.PkgCache, entry.Hash) != nil) != (tc.client.diffs == 1)) {
				t.Error("the client's diff base disagrees with the pull it made")
			}
			if tc.base == garbageManifest || tc.base == otherManifest {
				for tier, st := range map[string]store.Store{"edge": rep.store(), "client": c.PkgCache} {
					if _, err := st.Get(cacheKey(old.Hash) + tsr.ManifestSuffix); err == nil {
						t.Errorf("%s: kept the base manifest that failed its check", tier)
					}
				}
			}
		})
	}
}

// lyingBaseFor is a manifest of v1 (entry old) whose first chunk claims
// a chunk of the current version that v1 does not hold (lyingBase):
// reassembly copies v1's leading bytes where that chunk belongs.
func lyingBaseFor(t *testing.T, w *edgeWorld, name string, v1 []byte, old index.Entry) *store.ChunkManifest {
	t.Helper()
	up, err := w.tenant.FetchChunkManifestCtx(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	held := make(map[[32]byte]bool)
	for _, ch := range store.BuildManifest(v1).Chunks {
		held[ch.Hash] = true
	}
	for _, ch := range up.Chunks {
		if !held[ch.Hash] {
			lie := lyingBase(old.Size, ch)
			lie.PackageHash = old.Hash
			if err := lie.Valid(); err != nil {
				t.Fatalf("fixture: %v", err)
			}
			return lie
		}
	}
	t.Fatal("fixture: the bump changed no chunk")
	return nil
}
