package tsr

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/tpm"
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
// follows it without operator action. The counter-behind rows restart
// it on a lost TPM counter instead: there it must publish nothing
// until the counter is back.
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
	t.Run("counter behind", func(t *testing.T) {
		counterBehindRows(t)
	})
}

// counterBehindRows are the rows of TestEveryPublishSignsTheNextSequenceOnce
// that restart an origin whose TPM counter bank was lost: its newest
// checkpoint is ahead of the counter. The repository must refuse to
// publish, by refresh or ingest, until the bank is back; then it
// resumes where the previous life stopped.
func counterBehindRows(t *testing.T) {
	h := newPersistHost(t)
	w1 := h.boot(t)
	w1.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r1 := w1.deploy(t)
	ring := keys.NewRing(r1.PublicKey())
	signed := make(map[uint64][32]byte) // every served index's digest, by sequence
	served := func(t *testing.T, r *Repo) uint64 {
		t.Helper()
		s, err := r.FetchIndex()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := s.Verify(ring)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := signed[ix.Sequence]; ok && prev != s.Digest() {
			t.Fatalf("sequence %d signed over two different indexes", ix.Sequence)
		}
		signed[ix.Sequence] = s.Digest()
		return ix.Sequence
	}
	for i := 0; i < 3; i++ {
		if _, err := r1.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if seq := served(t, r1); seq != 3 {
		t.Fatalf("three refreshes signed sequence %d, want 3", seq)
	}

	// Restart on the same data dir with a fresh counter bank.
	bank := h.tpm
	h.tpm = tpm.New(keys.Shared.MustGet("persist-tpm-ak"))
	w2 := h.boot(t)
	w2.publish(t, pkgWithScript("app", "1.0-r0", ""))
	var r2 *Repo
	if !t.Run("restore trips ErrCounterBehind", func(t *testing.T) {
		restored, err := w2.svc.RestoreAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(restored) != 1 || restored[0].Warm || !restored[0].CounterBehind() || restored[0].RolledBack() {
			t.Fatalf("RestoreAll = %+v, want one repository refused with ErrCounterBehind", restored)
		}
		if r2, err = w2.svc.Repo(r1.ID); err != nil {
			t.Fatal(err)
		}
	}) {
		return
	}
	t.Run("refresh and ingest sign nothing", func(t *testing.T) {
		w2.publish(t, pkgWithScript("app", "1.1-r0", ""))
		if _, err := r2.Refresh(); !errors.Is(err, ErrCounterBehind) {
			t.Fatalf("refresh: err = %v, want ErrCounterBehind", err)
		}
		private := w2.encodePkg(t, pkgWithScript("private-tool", "1.0-r0", ""))
		if _, err := r2.RegisterPackages(context.Background(), [][]byte{private}); !errors.Is(err, ErrCounterBehind) {
			t.Fatalf("ingest: err = %v, want ErrCounterBehind", err)
		}
		if mc := h.tpm.ReadCounter(r2.counterID()); mc != 0 {
			t.Fatalf("the lost counter reads %d after the refused publishes, want 0: a sequence was reserved", mc)
		}
		if s, err := r2.FetchIndex(); err == nil {
			t.Fatalf("serves an index of %d bytes with its counter lost", len(s.Raw))
		}
	})
	t.Run("restored bank resumes", func(t *testing.T) {
		h.tpm = bank
		w3 := h.boot(t)
		w3.publish(t, pkgWithScript("app", "1.0-r0", ""), pkgWithScript("app", "1.1-r0", ""))
		restored, err := w3.svc.RestoreAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(restored) != 1 || !restored[0].Warm {
			t.Fatalf("RestoreAll = %+v, want the repository warm", restored)
		}
		r3, err := w3.svc.Repo(r1.ID)
		if err != nil {
			t.Fatal(err)
		}
		served(t, r3)
		if _, err := r3.Refresh(); err != nil {
			t.Fatal(err)
		}
		if seq := served(t, r3); seq <= 3 {
			t.Fatalf("after the bank is restored the origin signs sequence %d, which the first life already signed", seq)
		}
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

// TestFailedCounterWriteSignsNothing: the host's TPM NV bank cannot be
// written (a directory sits where the bank is renamed to), so no
// sequence reservation is durable. The refreshes that meet the failure
// must sign nothing, and after a restart on the bank as it was last
// written the origin must never sign a sequence it already signed.
func TestFailedCounterWriteSignsNothing(t *testing.T) {
	h := newPersistHost(t)
	nv := filepath.Join(t.TempDir(), "host.nv")
	restartTPM := func() {
		var err error
		if h.tpm, err = tpm.Open(keys.Shared.MustGet("persist-tpm-ak"), nv); err != nil {
			t.Fatal(err)
		}
	}
	restartTPM()
	signed := make(map[uint64][32]byte) // every served index's digest, by sequence
	served := func(r *Repo) uint64 {
		t.Helper()
		s, err := r.FetchIndex()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := s.Verify(keys.NewRing(r.PublicKey()))
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := signed[ix.Sequence]; ok && prev != s.Digest() {
			t.Fatalf("sequence %d signed twice", ix.Sequence)
		}
		signed[ix.Sequence] = s.Digest()
		return ix.Sequence
	}

	w1 := h.boot(t)
	w1.publish(t, pkgWithScript("app", "1.0-r0", ""))
	r1 := w1.deploy(t)
	if _, err := r1.Refresh(); err != nil {
		t.Fatal(err)
	}
	served(r1)
	if err := os.Rename(nv, nv+".saved"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(nv, "occupied"), 0o700); err != nil {
		t.Fatal(err)
	}
	var failed []error
	for _, v := range []string{"1.1-r0", "1.2-r0"} {
		w1.publish(t, pkgWithScript("app", v, ""))
		_, err := r1.Refresh()
		failed = append(failed, err)
		served(r1)
	}

	// Restart: the bank is writable again and holds what was last
	// written; the upstream replays its history and moves on.
	if err := os.RemoveAll(nv); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(nv+".saved", nv); err != nil {
		t.Fatal(err)
	}
	restartTPM()
	w2 := h.boot(t)
	for _, v := range []string{"1.0-r0", "1.1-r0", "1.2-r0", "1.3-r0"} {
		w2.publish(t, pkgWithScript("app", v, ""))
	}
	if _, err := w2.svc.RestoreAll(); err != nil {
		t.Fatal(err)
	}
	r2, err := w2.svc.Repo(r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Refresh(); err != nil {
		t.Fatal(err)
	}
	if seq := served(r2); seq != 2 {
		t.Fatalf("after the restart the origin signs sequence %d, want 2", seq)
	}
	for i, err := range failed {
		if err == nil {
			t.Fatalf("refresh %d succeeded though its sequence could not be made durable", i+1)
		}
	}
}
