package tsr

import (
	"context"
	"errors"
	"os"
	"testing"

	"tsr/internal/index"
	"tsr/internal/keys"
)

// TestEveryPublishSignsTheNextSequenceOnce walks refresh and ingest
// through each way they can end — publishing or not — and checks the
// freshness contract downstream verifiers rely on: a step that publishes
// advances the local index sequence by exactly one, every published
// index verifies under the tenant key, and no sequence number is ever
// seen with two different digests. The cold-start rows then roll the
// data dir back under the same key and TPM: the repository restarts
// cold, and its next index must still be ahead of every sequence the
// previous life signed, so a downstream that synced before the crash
// follows it without operator action.
func TestEveryPublishSignsTheNextSequenceOnce(t *testing.T) {
	w := newWorld(t, 3)
	w.publish(t, pkgWithScript("a", "1.0-r0", ""), pkgWithScript("b", "1.0-r0", ""))
	r := w.deploy(t)
	ring := keys.NewRing(r.PublicKey())
	private := w.encodePkg(t, pkgWithScript("private-tool", "1.0-r0", ""))

	refresh := func(t *testing.T) {
		if _, err := r.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	ingest := func(t *testing.T) {
		if _, err := r.RegisterPackages(context.Background(), [][]byte{private}); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name      string
		run       func(t *testing.T)
		publishes bool
	}{
		{"first refresh", refresh, true},
		{"bump refresh", func(t *testing.T) {
			w.publish(t, pkgWithScript("b", "1.1-r0", ""))
			refresh(t)
		}, true},
		{"no-change refresh", refresh, true},
		{"ingest new package", ingest, true},
		{"identical re-ingest", ingest, false},
		{"refresh after ingest", refresh, true},
	}

	var seq uint64
	digests := make(map[uint64][32]byte)
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			st.run(t)
			signed, err := r.FetchIndex()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := signed.Verify(ring)
			if err != nil {
				t.Fatalf("published index does not verify under the tenant key: %v", err)
			}
			want := seq
			if st.publishes {
				want++
			}
			if ix.Sequence != want {
				t.Fatalf("sequence %d -> %d, want %d", seq, ix.Sequence, want)
			}
			seq = ix.Sequence
			d := signed.Digest()
			if prev, ok := digests[seq]; ok && prev != d {
				t.Fatalf("sequence %d signed over two different indexes", seq)
			}
			digests[seq] = d
		})
	}
	t.Run("cold start", func(t *testing.T) {
		coldStartRows(t)
	})
}

// coldStartRows are the rows of TestEveryPublishSignsTheNextSequenceOnce
// that cross an origin restart on a rolled-back data dir.
func coldStartRows(t *testing.T) {
	h := newPersistHost(t)
	w1 := h.boot(t)
	w1.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r1 := w1.deploy(t)
	ring := keys.NewRing(r1.PublicKey())
	if _, err := r1.Refresh(); err != nil {
		t.Fatal(err)
	}
	snapDir := t.TempDir()
	copyTree(t, h.dir, snapDir)
	for i := 0; i < 3; i++ {
		if _, err := r1.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	before, beforeTag, err := r1.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The downstream: an edge that accepted the pre-crash index. It
	// keeps the floor an edge replica keeps (index.Floor.Step).
	beforeIx, err := before.Verify(ring)
	if err != nil {
		t.Fatal(err)
	}
	if beforeIx.Sequence != 4 {
		t.Fatalf("four refreshes signed sequence %d, want 4", beforeIx.Sequence)
	}
	edgeFloor, err := index.Floor{}.Step(beforeIx, before)
	if err != nil {
		t.Fatal(err)
	}

	// Roll the data dir back to the first checkpoint and restart.
	if err := os.RemoveAll(h.dir); err != nil {
		t.Fatal(err)
	}
	copyTree(t, snapDir, h.dir)
	w2 := h.boot(t)
	w2.publish(t, pkgWithScript("app", "1.0-r0", ""))
	var r2 *Repo
	if !t.Run("rollback trips ErrRollback", func(t *testing.T) {
		restored, err := w2.svc.RestoreAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(restored) != 1 || restored[0].Warm || !errors.Is(restored[0].Err, ErrRollback) {
			t.Fatalf("RestoreAll = %+v, want one cold repository with ErrRollback", restored)
		}
		if r2, err = w2.svc.Repo(r1.ID); err != nil {
			t.Fatal(err)
		}
	}) {
		return
	}
	var healed *index.Signed
	if !t.Run("healed index is ahead", func(t *testing.T) {
		if _, err := r2.Refresh(); err != nil {
			t.Fatal(err)
		}
		if healed, err = r2.FetchIndex(); err != nil {
			t.Fatal(err)
		}
		ix, err := healed.Verify(ring)
		if err != nil {
			t.Fatalf("healed index does not verify under the tenant key: %v", err)
		}
		if ix.Sequence < 5 {
			t.Fatalf("healed index signs sequence %d, which the previous life already signed (it reached 4)", ix.Sequence)
		}
	}) {
		return
	}
	t.Run("edge synced before the crash follows", func(t *testing.T) {
		// The edge's sync: a delta from its generation, which the new
		// life never published, then a full fetch through the floor.
		if _, err := r2.FetchIndexDeltaCtx(context.Background(), beforeTag); !errors.Is(err, index.ErrNoDelta) {
			t.Fatalf("delta from the pre-crash generation: err = %v, want ErrNoDelta", err)
		}
		ix, err := index.Decode(healed.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := edgeFloor.Step(ix, healed); err != nil {
			t.Fatalf("edge refuses the healed origin: %v", err)
		}
	})
}
