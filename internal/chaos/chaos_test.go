package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tsr/internal/edge"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/obs"
)

func signedIndex(t *testing.T, seq uint64, entries ...index.Entry) (*index.Signed, *keys.Ring) {
	t.Helper()
	pair := keys.Shared.MustGet("chaos-test-origin")
	ix := &index.Index{Origin: "chaos-test", Sequence: seq, Entries: entries}
	signed, err := index.Sign(ix, pair)
	if err != nil {
		t.Fatal(err)
	}
	return signed, keys.NewRing(pair.Public())
}

func entryFor(name string, body []byte) index.Entry {
	return index.Entry{Name: name, Version: "1.0", Size: int64(len(body)), Hash: sha256.Sum256(body)}
}

func TestCheckerAcceptsHonestReads(t *testing.T) {
	body := []byte("package bytes")
	e := entryFor("pkg-a", body)
	signed, ring := signedIndex(t, 3, e)
	c := NewChecker(ring)
	ix := c.IndexAccepted("client-0", signed)
	if ix == nil || ix.Sequence != 3 {
		t.Fatalf("IndexAccepted returned %+v", ix)
	}
	c.PackageAccepted("client-0", e, body)
	sum := sha256.Sum256(body)
	c.HTTPResponse("edge-0", 200, `"`+hex.EncodeToString(sum[:])+`"`, "", body)
	c.HTTPResponse("edge-0", 429, "", "1", nil)
	c.HTTPResponse("edge-0", 503, "", "", nil)
	c.AdmissionSnapshot("edge-0", obs.Snapshot{MaxInflight: 8, PeakInflight: 8})
	c.ChunkedPull("edge-0", 1)
	if lag := c.Quiesced(3); lag != 0 {
		t.Fatalf("lagging = %d", lag)
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("violations on honest reads: %v", v)
	}
	if c.Checks() == 0 {
		t.Fatal("no checks counted")
	}
}

func TestCheckerCatchesEveryBreach(t *testing.T) {
	body := []byte("package bytes")
	e := entryFor("pkg-a", body)
	signed, ring := signedIndex(t, 5, e)
	c := NewChecker(ring)

	// Tampered signature.
	bad := signed.Clone()
	bad.Sig[0] ^= 0xFF
	if ix := c.IndexAccepted("client-sig", bad); ix != nil {
		t.Fatal("tampered index decoded as accepted")
	}
	// Sequence regression.
	older, _ := signedIndex(t, 4, e)
	c.IndexAccepted("client-seq", signed)
	c.IndexAccepted("client-seq", older)
	// Wrong package bytes.
	c.PackageAccepted("client-bytes", e, []byte("tampered!"))
	// 200 whose ETag does not hash the body.
	c.HTTPResponse("edge-0", 200, `"deadbeef"`, "", body)
	// 429 without the backoff hint.
	c.HTTPResponse("edge-0", 429, "", "", nil)
	// Admission bound exceeded.
	c.AdmissionSnapshot("edge-0", obs.Snapshot{MaxInflight: 8, PeakInflight: 9})
	// A replica that pulled a new version in full over the old one.
	c.ChunkedPull("edge-1", 0)
	// A client stuck behind the fleet after quiesce.
	c.IndexAccepted("client-stale", signed)
	if lag := c.Quiesced(6); lag == 0 {
		t.Fatal("no lagging clients detected")
	}

	got := map[string]bool{}
	for _, v := range c.Violations() {
		got[v.Invariant] = true
	}
	for _, want := range []string{
		InvIndexSignature, InvMonotoneSequence, InvVerifiedBytes,
		InvETagBody, InvShedContract, InvAdmissionBound, InvBoundedStaleness,
		InvChunkedPull,
	} {
		if !got[want] {
			t.Errorf("missing violation %s (got %v)", want, c.Violations())
		}
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := BuildSchedule(netsim.NewRNG(42), 32, 4, 3)
	b := BuildSchedule(netsim.NewRNG(42), 32, 4, 3)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	other := BuildSchedule(netsim.NewRNG(43), 32, 4, 3)
	same := len(other) == len(a)
	if same {
		for i := range a {
			if a[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleGuaranteesComposedClasses(t *testing.T) {
	for _, seed := range []int64{1, 7, 11, 99} {
		events := BuildSchedule(netsim.NewRNG(seed), 24, 4, 3)
		byKind := CountByKind(events)
		for _, kind := range []EventKind{
			FlashCrowd, EdgeKill, EdgeRestart, EdgeRollback, ByzantineFlip,
			OriginCrash, OriginRestart, MirrorOutage, MirrorRecover, Refresh,
		} {
			if byKind[kind.String()] == 0 {
				t.Fatalf("seed %d: no %s event in %v", seed, kind, events)
			}
		}
		if n := ComposedFailures(events); n < 5 {
			t.Fatalf("seed %d: only %d composed failures", seed, n)
		}
		// Kills pair with restarts, flips return to honest, the origin
		// restarts after its crash, ordering is by tick, and the front
		// edge slot is never a target.
		lastTick := 0
		flipsAway, flipsBack := 0, 0
		for _, e := range events {
			if e.Tick < lastTick {
				t.Fatalf("seed %d: out-of-order schedule: %v", seed, events)
			}
			lastTick = e.Tick
			switch e.Kind {
			case EdgeKill, EdgeRestart, EdgeRollback:
				if e.Target == 0 {
					t.Fatalf("seed %d: event targets protected edge slot 0: %v", seed, e)
				}
			case ByzantineFlip:
				if e.Target == 0 {
					t.Fatalf("seed %d: flip targets protected edge slot 0: %v", seed, e)
				}
				if e.Behavior == edge.Honest {
					flipsBack++
				} else {
					flipsAway++
				}
			}
		}
		if byKind[EdgeKill.String()] != byKind[EdgeRestart.String()] {
			t.Fatalf("seed %d: kills %d != restarts %d", seed, byKind[EdgeKill.String()], byKind[EdgeRestart.String()])
		}
		if flipsAway != 3 || flipsBack != 3 {
			t.Fatalf("seed %d: flips away %d / back %d, want 3 / 3", seed, flipsAway, flipsBack)
		}
	}
}

func TestScheduleSkipsEdgeEventsWithoutEdges(t *testing.T) {
	events := BuildSchedule(netsim.NewRNG(5), 16, 1, 0)
	for _, e := range events {
		switch e.Kind {
		case EdgeKill, EdgeRestart, EdgeRollback, ByzantineFlip, MirrorOutage, MirrorRecover:
			t.Fatalf("edge/mirror event scheduled without targets: %v", e)
		}
	}
	if ComposedFailures(events) == 0 {
		t.Fatal("origin and flash-crowd classes should survive")
	}
}
