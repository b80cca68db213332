package mirror

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"tsr/internal/apk"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/repo"
)

func setup(t *testing.T) (*repo.Repository, *Mirror) {
	t.Helper()
	r := repo.New("alpine-main", keys.Shared.MustGet("repo-index-signer"))
	p := &apk.Package{
		Name: "musl", Version: "1.1-r0",
		Files: []apk.File{{Path: "/lib/libc.so", Mode: 0o755, Content: []byte("v1")}},
	}
	if err := r.Publish(p); err != nil {
		t.Fatal(err)
	}
	m := New("https://mirror.example/", netsim.Europe)
	m.Sync(r)
	return r, m
}

func publishV2(t *testing.T, r *repo.Repository) {
	t.Helper()
	p := &apk.Package{
		Name: "musl", Version: "1.2-r0",
		Files: []apk.File{{Path: "/lib/libc.so", Mode: 0o755, Content: []byte("v2 security fix")}},
	}
	if err := r.Publish(p); err != nil {
		t.Fatal(err)
	}
}

func seqOf(t *testing.T, m *Mirror) uint64 {
	t.Helper()
	signed, err := m.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ring := keys.NewRing(keys.Shared.MustGet("repo-index-signer").Public())
	ix, err := signed.Verify(ring)
	if err != nil {
		t.Fatal(err)
	}
	return ix.Sequence
}

func TestHonestMirrorTracksRepo(t *testing.T) {
	r, m := setup(t)
	if got := seqOf(t, m); got != 1 {
		t.Fatalf("seq = %d", got)
	}
	publishV2(t, r)
	m.Sync(r)
	if got := seqOf(t, m); got != 2 {
		t.Fatalf("seq after sync = %d", got)
	}
	raw, err := m.FetchPackage("musl")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := r.Fetch("musl")
	if !bytes.Equal(raw, want) {
		t.Fatal("mirror bytes differ from repo")
	}
}

func TestReplayMirrorServesStaleIndex(t *testing.T) {
	r, m := setup(t)
	m.SetBehavior(Replay)
	publishV2(t, r)
	m.Sync(r) // adversary "syncs" but keeps serving the pinned snapshot
	if got := seqOf(t, m); got != 1 {
		t.Fatalf("replay mirror served seq %d, want stale 1", got)
	}
	// The stale package is the vulnerable v1.
	raw, err := m.FetchPackage("musl")
	if err != nil {
		t.Fatal(err)
	}
	p, err := apk.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != "1.1-r0" {
		t.Fatalf("version = %s", p.Version)
	}
}

func TestFreezeMirrorNeverAdvances(t *testing.T) {
	r, m := setup(t)
	m.SetBehavior(Freeze)
	for i := 0; i < 3; i++ {
		publishV2(t, r)
		m.Sync(r)
	}
	if got := seqOf(t, m); got != 1 {
		t.Fatalf("freeze mirror served seq %d", got)
	}
}

func TestCorruptMirrorFlipsPackageBytes(t *testing.T) {
	r, m := setup(t)
	m.SetBehavior(Corrupt)
	raw, err := m.FetchPackage("musl")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := r.Fetch("musl")
	if bytes.Equal(raw, want) {
		t.Fatal("corrupt mirror served clean bytes")
	}
	// The corruption is detectable: decode must fail (gzip/tar/hash).
	if _, err := apk.Decode(raw); err == nil {
		t.Fatal("corrupted package decoded cleanly")
	}
	// The index, however, is served intact (signature still valid).
	if got := seqOf(t, m); got != 1 {
		t.Fatalf("seq = %d", got)
	}
}

// TestCorruptFlipStaysPrivate: mirrors synced from one repository state
// share its package bytes, so a Corrupt mirror must flip its byte in a
// copy. Every corrupt fetch differs from the repository's bytes in
// exactly one byte (a flip made in place would cancel out on the second
// fetch), and neither the repository nor an honest mirror synced from
// the same state ever serves a flipped byte.
func TestCorruptFlipStaysPrivate(t *testing.T) {
	r, corrupt := setup(t)
	honest := New("https://honest.example/", netsim.Europe)
	honest.Sync(r)
	corrupt.SetBehavior(Corrupt)
	entry, err := r.Index().Lookup("musl")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		raw, err := corrupt.FetchPackage("musl")
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Fetch("musl")
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != len(want) {
			t.Fatalf("corrupt fetch %d: %d bytes, want %d", i, len(raw), len(want))
		}
		diff := 0
		for j := range raw {
			if raw[j] != want[j] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("corrupt fetch %d differs from the repository in %d bytes, want 1", i, diff)
		}
		if !entry.Matches(want) {
			t.Fatalf("after corrupt fetch %d the repository's bytes no longer match its index", i)
		}
		got, err := honest.FetchPackage("musl")
		if err != nil {
			t.Fatal(err)
		}
		if !entry.Matches(got) {
			t.Fatalf("after corrupt fetch %d the honest mirror serves bytes that do not match the index", i)
		}
	}
}

func TestOfflineMirrorFailsRequests(t *testing.T) {
	_, m := setup(t)
	m.SetBehavior(Offline)
	if _, err := m.FetchIndex(); !errors.Is(err, ErrOffline) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.FetchPackage("musl"); !errors.Is(err, ErrOffline) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecoveryToHonest(t *testing.T) {
	r, m := setup(t)
	m.SetBehavior(Freeze)
	publishV2(t, r)
	m.Sync(r)
	m.SetBehavior(Honest)
	if got := seqOf(t, m); got != 2 {
		t.Fatalf("recovered mirror served seq %d", got)
	}
}

func TestUnsyncedMirror(t *testing.T) {
	m := New("https://empty/", netsim.Asia)
	if _, err := m.FetchIndex(); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("err = %v", err)
	}
}

func TestFetchMissingPackage(t *testing.T) {
	_, m := setup(t)
	if _, err := m.FetchPackage("nothere"); !errors.Is(err, repo.ErrNoPackage) {
		t.Fatalf("err = %v", err)
	}
}

// TestReplayBeforeFirstSync: a mirror turned malicious before ever
// syncing has nothing to replay — requests fail with ErrNoIndex — and
// the first Sync pins that first snapshot as the stale view it keeps
// serving from then on.
func TestReplayBeforeFirstSync(t *testing.T) {
	r := repo.New("alpine-main", keys.Shared.MustGet("repo-index-signer"))
	p := &apk.Package{
		Name: "musl", Version: "1.1-r0",
		Files: []apk.File{{Path: "/lib/libc.so", Mode: 0o755, Content: []byte("v1")}},
	}
	if err := r.Publish(p); err != nil {
		t.Fatal(err)
	}
	m := New("https://mirror.example/", netsim.Europe)
	m.SetBehavior(Replay)
	if _, err := m.FetchIndex(); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("pre-sync replay err = %v, want ErrNoIndex", err)
	}
	if _, err := m.FetchPackage("musl"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("pre-sync replay err = %v, want ErrNoIndex", err)
	}
	m.Sync(r)
	if got := seqOf(t, m); got != 1 {
		t.Fatalf("seq = %d, want the first synced snapshot", got)
	}
	publishV2(t, r)
	m.Sync(r)
	if got := seqOf(t, m); got != 1 {
		t.Fatalf("seq = %d, want the pinned first snapshot", got)
	}
}

// TestReplayToHonestRecovery: a replay mirror that returns to honesty
// serves the latest synced snapshot again (Sync kept recording new
// snapshots underneath the pinned one).
func TestReplayToHonestRecovery(t *testing.T) {
	r, m := setup(t)
	m.SetBehavior(Replay)
	publishV2(t, r)
	m.Sync(r)
	if got := seqOf(t, m); got != 1 {
		t.Fatalf("replaying seq = %d", got)
	}
	m.SetBehavior(Honest)
	if got := seqOf(t, m); got != 2 {
		t.Fatalf("recovered seq = %d, want latest", got)
	}
	raw, err := m.FetchPackage("musl")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := r.Fetch("musl")
	if !bytes.Equal(raw, want) {
		t.Fatal("recovered mirror still serves stale bytes")
	}
}

// TestCorruptTinyPackages: the corruption byte-flip on the smallest
// possible bodies — a 1-byte package must come back flipped, and an
// empty package must not panic.
func TestCorruptTinyPackages(t *testing.T) {
	r := repo.New("alpine-main", keys.Shared.MustGet("repo-index-signer"))
	if err := r.PublishRaw("tiny", "1.0-r0", nil, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	if err := r.PublishRaw("empty", "1.0-r0", nil, nil); err != nil {
		t.Fatal(err)
	}
	m := New("https://mirror.example/", netsim.Europe)
	m.Sync(r)
	m.SetBehavior(Corrupt)
	raw, err := m.FetchPackage("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 || raw[0] != 0x42^0xFF {
		t.Fatalf("tiny = %x, want the single byte flipped", raw)
	}
	if raw, err = m.FetchPackage("empty"); err != nil || len(raw) != 0 {
		t.Fatalf("empty = %x, %v", raw, err)
	}
}

// TestConcurrentFetchDuringSyncAndBehaviorFlips hammers the mirror's
// read path while snapshots and behaviors change — the mirror-side
// analogue of TSR's reads-during-refresh guarantee (run under -race).
// The mirror shares the repository's bytes with an honest mirror, so
// the Corrupt phases must leave both serving bytes that match the
// index.
func TestConcurrentFetchDuringSyncAndBehaviorFlips(t *testing.T) {
	r, m := setup(t)
	honest := New("https://honest.example/", netsim.Europe)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := m.FetchIndex(); err != nil && !errors.Is(err, ErrOffline) {
					t.Errorf("FetchIndex: %v", err)
					return
				}
				if _, err := m.FetchPackage("musl"); err != nil && !errors.Is(err, ErrOffline) {
					t.Errorf("FetchPackage: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		publishV2(t, r)
		m.Sync(r)
		honest.Sync(r)
		m.SetBehavior(Behavior(i % 5))
	}
	m.SetBehavior(Honest)
	close(done)
	wg.Wait()
	entry, err := r.Index().Lookup("musl")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*Mirror{m, honest} {
		raw, err := src.FetchPackage("musl")
		if err != nil {
			t.Fatal(err)
		}
		if !entry.Matches(raw) {
			t.Fatalf("%s serves bytes that do not match the index after the corrupt phases", src.Hostname)
		}
	}
}

func TestBehaviorString(t *testing.T) {
	for b, want := range map[Behavior]string{
		Honest: "honest", Replay: "replay", Freeze: "freeze",
		Corrupt: "corrupt", Offline: "offline", Behavior(9): "Behavior(9)",
	} {
		if got := b.String(); got != want {
			t.Errorf("%d.String() = %q", int(b), got)
		}
	}
}
