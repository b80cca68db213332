package keys

import (
	"crypto/sha256"
	"sync"
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
// The bound is a two-map rotation: signatures go into the current map;
// when it reaches the cap it becomes the old map and the previous old
// map is dropped. A hit in the old map is promoted into the current
// one, so what is in use survives a rotation. A Memo is safe for
// concurrent use.
type Memo struct {
	pair *Pair
	cap  int

	mu       sync.Mutex
	cur, old map[[32]byte][SignatureSize]byte
}

// NewMemo returns an empty memo for pair's signatures.
func NewMemo(pair *Pair) *Memo { return newMemo(pair, MemoCap) }

func newMemo(pair *Pair, limit int) *Memo {
	return &Memo{pair: pair, cap: limit, cur: make(map[[32]byte][SignatureSize]byte)}
}

// Sign returns the pair's signature of SHA-256(data), from the memo
// when it holds one. The result is the caller's to keep or modify.
func (m *Memo) Sign(data []byte) ([]byte, error) {
	return m.signDigest(sha256.Sum256(data))
}

func (m *Memo) signDigest(digest [32]byte) ([]byte, error) {
	m.mu.Lock()
	sig, ok := m.cur[digest]
	if !ok {
		if sig, ok = m.old[digest]; ok {
			delete(m.old, digest)
			m.putLocked(digest, sig)
		}
	}
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
		m.putLocked(digest, [SignatureSize]byte(fresh))
		m.mu.Unlock()
	}
	return fresh, nil
}

// putLocked stores sig under digest, rotating the maps when the
// current one is full.
func (m *Memo) putLocked(digest [32]byte, sig [SignatureSize]byte) {
	if _, ok := m.cur[digest]; !ok && len(m.cur) >= m.cap {
		m.old, m.cur = m.cur, make(map[[32]byte][SignatureSize]byte)
	}
	m.cur[digest] = sig
}

// size returns the number of signatures the memo holds.
func (m *Memo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}
