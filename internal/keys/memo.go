package keys

import (
	"crypto/sha256"
	"sync"

	"tsr/internal/rotation"
)

// MemoCap is the number of signatures each of a Memo's two maps holds
// before they rotate, so a Memo keeps at most 2 × MemoCap entries of
// 32 + SignatureSize bytes each (about 2.4 MB).
const MemoCap = 4096

// Memo remembers the signatures one Pair has made, keyed by the
// SHA-256 digest they sign. PKCS#1 v1.5 is deterministic, so a
// remembered signature is byte-for-byte the one a fresh private-key
// operation would return: a repository that re-sanitizes a package
// whose version changed but most of whose files did not signs only the
// files that changed.
//
// The bound is a two-map rotation (package rotation) of MemoCap
// signatures per map, so what is in use survives a rotation. A Memo is
// safe for concurrent use.
type Memo struct {
	pair *Pair

	mu   sync.Mutex
	sigs rotation.Map[[32]byte, [SignatureSize]byte]
}

// NewMemo returns an empty memo for pair's signatures.
func NewMemo(pair *Pair) *Memo { return newMemo(pair, MemoCap) }

func newMemo(pair *Pair, limit int) *Memo {
	return &Memo{pair: pair, sigs: rotation.New[[32]byte, [SignatureSize]byte](limit, nil)}
}

// Sign returns the pair's signature of SHA-256(data), from the memo
// when it holds one. The result is the caller's to keep or modify.
func (m *Memo) Sign(data []byte) ([]byte, error) {
	return m.signDigest(sha256.Sum256(data))
}

func (m *Memo) signDigest(digest [32]byte) ([]byte, error) {
	m.mu.Lock()
	sig, ok := m.sigs.Get(digest)
	m.mu.Unlock()
	if ok {
		out := make([]byte, SignatureSize)
		copy(out, sig[:])
		return out, nil
	}

	// The private-key operation runs outside the lock; two callers that
	// miss on the same digest both sign it and store the same bytes.
	fresh, err := m.pair.SignDigest(digest)
	if err != nil {
		return nil, err
	}
	if len(fresh) == SignatureSize { // a key that is not RSA-2048 signs every time
		m.mu.Lock()
		m.sigs.Put(digest, [SignatureSize]byte(fresh))
		m.mu.Unlock()
	}
	return fresh, nil
}

// size returns the number of signatures the memo holds.
func (m *Memo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sigs.Len()
}
