package quorum

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/mirror"
	"tsr/internal/netsim"
	"tsr/internal/repo"
)

// harness builds an original repository plus n mirrors on the given
// continents.
type harness struct {
	repo    *repo.Repository
	mirrors []*mirror.Mirror
	ring    *keys.Ring
}

func newHarness(t *testing.T, continents ...netsim.Continent) *harness {
	t.Helper()
	signer := keys.Shared.MustGet("repo-index-signer")
	r := repo.New("alpine-main", signer)
	p := &apk.Package{
		Name: "musl", Version: "1.1-r0",
		Files: []apk.File{{Path: "/lib/libc.so", Mode: 0o755, Content: []byte("v1")}},
	}
	if err := r.Publish(p); err != nil {
		t.Fatal(err)
	}
	h := &harness{repo: r, ring: keys.NewRing(signer.Public())}
	for i, c := range continents {
		m := mirror.New(fmt.Sprintf("https://mirror%d/", i), c)
		m.Sync(r)
		h.mirrors = append(h.mirrors, m)
	}
	return h
}

func (h *harness) reader(clock netsim.Clock, rng *netsim.RNG) *Reader {
	members := make([]Member, len(h.mirrors))
	for i, m := range h.mirrors {
		members[i] = Member{Host: m.Hostname, Continent: m.Continent, Source: m}
	}
	return &Reader{
		Local:     netsim.Europe,
		Link:      netsim.DefaultLinkModel(rng),
		Clock:     clock,
		TrustRing: h.ring,
		Members:   members,
	}
}

func (h *harness) publishUpdate(t *testing.T) {
	t.Helper()
	p := &apk.Package{
		Name: "musl", Version: "1.2-r0",
		Files: []apk.File{{Path: "/lib/libc.so", Mode: 0o755, Content: []byte("v2")}},
	}
	if err := h.repo.Publish(p); err != nil {
		t.Fatal(err)
	}
	for _, m := range h.mirrors {
		m.Sync(h.repo)
	}
}

func seqOf(t *testing.T, h *harness, s *index.Signed) uint64 {
	t.Helper()
	ix, err := s.Verify(h.ring)
	if err != nil {
		t.Fatal(err)
	}
	return ix.Sequence
}

func TestAllHonestQuorum(t *testing.T) {
	h := newHarness(t, netsim.Europe, netsim.Europe, netsim.Europe)
	res, err := h.reader(nil, nil).Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreeing < 2 {
		t.Fatalf("agreeing = %d", res.Agreeing)
	}
	// Fastest f+1 = 2 mirrors suffice when they agree.
	if res.Contacted != 2 {
		t.Fatalf("contacted = %d, want 2 (fastest f+1)", res.Contacted)
	}
	if seqOf(t, h, res.Index) != 1 {
		t.Fatal("wrong index")
	}
}

func TestToleratesFReplayMirrors(t *testing.T) {
	// 5 mirrors, f=2: two replay mirrors serving the stale index are
	// outvoted by three honest ones.
	h := newHarness(t, netsim.Europe, netsim.Europe, netsim.Europe, netsim.Europe, netsim.Europe)
	h.mirrors[0].SetBehavior(mirror.Replay)
	h.mirrors[1].SetBehavior(mirror.Replay)
	h.publishUpdate(t)
	res, err := h.reader(nil, netsim.NewRNG(1)).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got := seqOf(t, h, res.Index); got != 2 {
		t.Fatalf("quorum chose stale index (seq %d)", got)
	}
	if res.Agreeing < 3 {
		t.Fatalf("agreeing = %d", res.Agreeing)
	}
}

func TestToleratesOfflineMirrors(t *testing.T) {
	h := newHarness(t, netsim.Europe, netsim.Europe, netsim.Europe)
	h.mirrors[2].SetBehavior(mirror.Offline)
	res, err := h.reader(nil, netsim.NewRNG(1)).Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreeing != 2 {
		t.Fatalf("agreeing = %d", res.Agreeing)
	}
}

func TestFailsWhenMajorityByzantine(t *testing.T) {
	// 3 mirrors, f=1: two replay mirrors can force the stale index —
	// but since the stale index is still a *valid signed* index, the
	// quorum accepts it. This demonstrates the threat-model boundary:
	// the paper assumes at most f compromised mirrors.
	h := newHarness(t, netsim.Europe, netsim.Europe, netsim.Europe)
	h.mirrors[0].SetBehavior(mirror.Replay)
	h.mirrors[1].SetBehavior(mirror.Replay)
	h.publishUpdate(t)
	res, err := h.reader(nil, netsim.NewRNG(1)).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got := seqOf(t, h, res.Index); got != 1 {
		t.Fatalf("expected the attack to succeed beyond threshold, got seq %d", got)
	}
}

func TestNoQuorumWhenAllDisagree(t *testing.T) {
	// Three mirrors each serving a different index: no f+1 agreement.
	h := newHarness(t, netsim.Europe, netsim.Europe, netsim.Europe)
	h.mirrors[0].SetBehavior(mirror.Freeze) // seq 1
	h.publishUpdate(t)                      // honest now at seq 2
	h.mirrors[1].SetBehavior(mirror.Freeze) // seq 2
	h.publishUpdate(t)                      // honest now at seq 3
	if _, err := h.reader(nil, netsim.NewRNG(1)).Read(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectsForgedIndex(t *testing.T) {
	// A mirror serving an index signed by an untrusted key never votes.
	h := newHarness(t, netsim.Europe, netsim.Europe, netsim.Europe)
	forged := forgingSource{}
	r := h.reader(nil, netsim.NewRNG(1))
	r.Members[0].Source = forged
	res, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreeing != 2 {
		t.Fatalf("agreeing = %d", res.Agreeing)
	}
}

// forgingSource serves an index signed by an adversary key.
type forgingSource struct{}

func (forgingSource) FetchIndex() (*index.Signed, error) {
	evil := keys.Shared.MustGet("evil-index-signer")
	ix := &index.Index{Origin: "alpine-main", Sequence: 99}
	return index.Sign(ix, evil)
}

func TestElapsedTracksFastestQuorum(t *testing.T) {
	// With European and Asian mirrors and an agreeing European
	// majority, latency must track Europe, not Asia (Figure 13 "All").
	h := newHarness(t,
		netsim.Europe, netsim.Europe, netsim.Europe,
		netsim.Asia, netsim.Asia)
	clock := netsim.NewVirtualClock(time.Time{})
	res, err := h.reader(clock, netsim.NewRNG(1)).Read()
	if err != nil {
		t.Fatal(err)
	}
	// Intra-Europe RTT is 26.4ms; Asia is 240ms. The quorum (3 of 5)
	// should complete well under the Asia round trip.
	if res.Elapsed > 200*time.Millisecond {
		t.Fatalf("elapsed = %v, expected European-quorum latency", res.Elapsed)
	}
	// The virtual clock advanced by exactly the modeled time.
	if got := clock.Now().Sub(time.Time{}); got != res.Elapsed {
		t.Fatalf("clock advanced %v, want %v", got, res.Elapsed)
	}
}

func TestWidensOnDisagreement(t *testing.T) {
	// The two fastest (European) mirrors disagree; the reader must
	// widen to further mirrors to find the f+1 quorum.
	h := newHarness(t, netsim.Europe, netsim.Europe,
		netsim.NorthAmerica, netsim.NorthAmerica, netsim.NorthAmerica)
	h.mirrors[0].SetBehavior(mirror.Freeze)
	h.mirrors[1].SetBehavior(mirror.Freeze)
	h.publishUpdate(t)
	res, err := h.reader(nil, netsim.NewRNG(1)).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got := seqOf(t, h, res.Index); got != 2 {
		t.Fatalf("seq = %d", got)
	}
	if res.Contacted <= 3 {
		t.Fatalf("contacted = %d, expected widening past f+1", res.Contacted)
	}
}

func TestSingleMirror(t *testing.T) {
	// n=1, f=0: the default configuration of today's operating systems.
	h := newHarness(t, netsim.Europe)
	res, err := h.reader(nil, netsim.NewRNG(1)).Read()
	if err != nil {
		t.Fatal(err)
	}
	if res.Contacted != 1 || res.Agreeing != 1 {
		t.Fatalf("res = %+v", res)
	}
}

// TestReadFailsClosedWithoutRing: a reader with no ring cannot tell a
// signed index from a forged one, so it counts no votes at all.
func TestReadFailsClosedWithoutRing(t *testing.T) {
	h := newHarness(t, netsim.Europe, netsim.Europe, netsim.Europe)
	r := h.reader(nil, netsim.NewRNG(1))
	r.TrustRing = nil
	if _, err := r.Read(); !errors.Is(err, index.ErrUntrusted) {
		t.Fatalf("err = %v, want index.ErrUntrusted", err)
	}
}

func TestNoMirrors(t *testing.T) {
	r := &Reader{}
	if _, err := r.Read(); !errors.Is(err, ErrNoMirrors) {
		t.Fatalf("err = %v", err)
	}
}

func TestMaxFaulty(t *testing.T) {
	for n, want := range map[int]int{1: 0, 2: 0, 3: 1, 5: 2, 9: 4, 10: 4} {
		r := &Reader{Members: make([]Member, n)}
		if got := r.MaxFaulty(); got != want {
			t.Errorf("MaxFaulty(%d) = %d, want %d", n, got, want)
		}
	}
}
