package tsr

import (
	"context"
	"testing"

	"tsr/internal/keys"
)

// TestEveryPublishSignsTheNextSequenceOnce walks refresh and ingest
// through each way they can end — publishing or not — and checks the
// freshness contract downstream verifiers rely on: a step that publishes
// advances the local index sequence by exactly one, every published
// index verifies under the tenant key, and no sequence number is ever
// seen with two different digests.
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
}
