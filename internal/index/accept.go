package index

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"tsr/internal/keys"
)

// The acceptance rule (§5.5): a consumer installs only what the
// enclave signed and never moves back to an older index. AcceptIndex
// is that rule, and every verifying consumer — the package manager,
// the failover client, the origin's upstream check — calls it instead
// of writing its own sequence floor. Untrusted caches (edge replicas)
// call only its floor step.

// Acceptance sentinels.
var (
	// ErrUntrusted: the consumer holds no trust ring, so nothing it
	// receives can be verified. The rule fails closed.
	ErrUntrusted = errors.New("index: no trust ring: refusing an index that cannot be verified")
	// ErrStale: a validly signed index older than one already accepted
	// (a replayed or frozen repository).
	ErrStale = errors.New("index: stale index: sequence below the accepted floor (replay or rollback)")
	// ErrFork: a validly signed index whose body differs from the one
	// already accepted at the same sequence (the signer published two
	// histories).
	ErrFork = errors.New("index: forked index: a different body at the accepted sequence")
)

// Floor is what a consumer keeps of the newest index it accepted: its
// sequence and the SHA-256 of its signed body. The zero Floor accepts
// anything. A floor restored from a checkpoint carries only a sequence
// (zero Body), so the fork check at that sequence is skipped.
type Floor struct {
	Sequence uint64
	Body     [32]byte
}

// Step is the floor half of AcceptIndex: it refuses ix (decoded from
// s) when it is older than the floor (ErrStale) or differs from the
// accepted body at the floor's own sequence (ErrFork), and otherwise
// returns the floor that accepting it yields. It does not verify the
// signature.
func (f Floor) Step(ix *Index, s *Signed) (Floor, error) {
	if ix.Sequence < f.Sequence {
		return f, fmt.Errorf("%w: sequence %d < accepted %d", ErrStale, ix.Sequence, f.Sequence)
	}
	body := sha256.Sum256(s.Raw)
	if ix.Sequence == f.Sequence && f.Body != ([32]byte{}) && body != f.Body {
		return f, fmt.Errorf("%w: sequence %d", ErrFork, ix.Sequence)
	}
	return Floor{Sequence: ix.Sequence, Body: body}, nil
}

// AcceptIndex decides whether a consumer holding floor may accept s:
// a nil ring is ErrUntrusted, the signature is checked before the body
// is decoded, and the decoded index must pass the floor step. On
// success it returns the index and the floor the caller commits
// together with its own state; on failure the floor is returned
// unchanged.
func AcceptIndex(floor Floor, s *Signed, ring *keys.Ring) (*Index, Floor, error) {
	if ring == nil {
		return nil, floor, ErrUntrusted
	}
	ix, err := s.Verify(ring)
	if err != nil {
		return nil, floor, err
	}
	next, err := floor.Step(ix, s)
	if err != nil {
		return nil, floor, err
	}
	return ix, next, nil
}
