package index

import (
	"crypto/sha256"
	"errors"
	"testing"

	"tsr/internal/keys"
)

// TestAcceptIndex is the acceptance rule's table: every verifying
// consumer (pkgmgr.Manager, edge.FailoverClient, tsr.Repo's upstream
// check) gets exactly these verdicts, because it calls this function.
func TestAcceptIndex(t *testing.T) {
	pair := keys.Shared.MustGet("index-signer")
	ring := keys.NewRing(pair.Public())
	sign := func(origin string, seq uint64) *Signed {
		ix := sampleIndex()
		ix.Origin, ix.Sequence = origin, seq
		s, err := Sign(ix, pair)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	at7, at8 := sign("repo", 7), sign("repo", 8)
	forkAt7 := sign("repo-fork", 7)
	badSig := at8.Clone()
	badSig.Sig[0] ^= 0xFF
	_, held, err := AcceptIndex(Floor{}, at7, ring)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		floor   Floor
		signed  *Signed
		ring    *keys.Ring
		wantErr error
		wantSeq uint64 // sequence of the floor after the call
	}{
		{"nil ring", held, at8, nil, ErrUntrusted, 7},
		{"bad signature", held, badSig, ring, keys.ErrBadSignature, 7},
		{"stale", Floor{Sequence: 8}, at7, ring, ErrStale, 8},
		{"fork", held, forkAt7, ring, ErrFork, 7},
		{"same index again", held, at7, ring, nil, 7},
		{"newer index", held, at8, ring, nil, 8},
		{"first index", Floor{}, at7, ring, nil, 7},
		{"restored floor carries no body", Floor{Sequence: 7}, forkAt7, ring, nil, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, floor, err := AcceptIndex(tc.floor, tc.signed, tc.ring)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if ix != nil || floor != tc.floor {
					t.Fatalf("refusal returned index %v and floor %+v, want nil and the floor unchanged", ix, floor)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ix.Sequence != tc.wantSeq || floor.Sequence != tc.wantSeq {
				t.Fatalf("accepted sequence %d, floor %d, want %d", ix.Sequence, floor.Sequence, tc.wantSeq)
			}
			// The returned floor pins the accepted body.
			if floor.Body != sha256.Sum256(tc.signed.Raw) {
				t.Fatal("the returned floor does not carry the accepted body's digest")
			}
		})
	}
}
