package edge

import (
	"context"
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

// pullCounts are one pull's marks on a tier's counters.
type pullCounts struct{ diffs, fallbacks, third int64 }

// TestPullRefusesLyingUpstreams runs the one pull both tiers share
// through the replica's pull-through and the client's fetch, against
// an upstream that lies in one way per row, after a version bump that
// leaves both tiers holding the previous version as their diff base.
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
		lieBase  bool // both tiers hold a base manifest that lies
		fails    bool
		edge     pullCounts // DiffPulls, DiffFallbacks, OriginPackages
		client   pullCounts // DiffFetches, DiffFallbacks, RejectedBytes
	}{
		{name: "honest", edge: pullCounts{1, 0, 0}, client: pullCounts{1, 0, 0}},
		{name: "manifest not rooted in the entry", lie: unrootedManifest, edge: pullCounts{0, 1, 1}, client: pullCounts{0, 1, 0}},
		{name: "lying range", lie: lyingRange, edge: pullCounts{0, 1, 1}, client: pullCounts{0, 1, 0}},
		{name: "lying base manifest", lieBase: true, edge: pullCounts{0, 1, 1}, client: pullCounts{0, 1, 0}},
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
			if tc.lieBase {
				lie := lyingBaseFor(t, w, name, v1, old)
				rep.manifests.Seed(name, lie)
				c.lastPkg[name] = lastFetch{entry: old, manifest: lie}
			}
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
			if m := rep.manifests.Lookup(name, entry.Hash); (m != nil) != (tc.edge.diffs == 1) {
				t.Error("the edge's manifest memo disagrees with whether the pull diffed")
			}

			got, err = c.FetchPackage(name)
			check("client", got, err)
			cs := c.Stats()
			if d := (pullCounts{cs.DiffFetches - clientBefore.DiffFetches, cs.DiffFallbacks - clientBefore.DiffFallbacks, cs.RejectedBytes - clientBefore.RejectedBytes}); d != tc.client {
				t.Errorf("client counted {DiffFetches DiffFallbacks RejectedBytes} = %v, want %v", d, tc.client)
			}
			if last := c.lastPkg[name]; !tc.fails && (last.entry.Hash != entry.Hash || (last.manifest != nil) != (tc.client.diffs == 1)) {
				t.Error("the client's diff base disagrees with the pull it made")
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
