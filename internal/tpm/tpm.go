// Package tpm implements a software TPM 2.0 subset: a PCR bank with
// extend semantics, signed quotes over selected PCRs, and monotonic
// counters. It stands in for the hardware root of trust the paper's
// integrity-enforced OS reports measurements through (§2.3), and for the
// TPM monotonic counter TSR uses for cache rollback protection (§5.5).
//
// The substitution preserves the relevant behaviour: extend-only PCR
// state, attestation bound to a device key, and counters that can only
// increase.
package tpm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sync"

	"tsr/internal/durable"
	"tsr/internal/keys"
)

// NumPCRs is the size of the PCR bank (TPM 2.0 SHA-256 bank).
const NumPCRs = 24

// PCRIMA is the PCR Linux IMA extends with file measurements (PCR 10).
const PCRIMA = 10

// Error sentinels.
var (
	ErrBadPCR   = errors.New("tpm: PCR index out of range")
	ErrBadQuote = errors.New("tpm: quote verification failed")
)

// TPM is a software trusted platform module. Create one with New.
// All methods are safe for concurrent use.
type TPM struct {
	mu       sync.Mutex
	pcrs     [NumPCRs][32]byte
	counters map[uint32]uint64
	ak       *keys.Pair // attestation key (AIK)
	// nvPath is the file the counter bank persists to (see Open),
	// through fsys; empty keeps the bank in memory only.
	nvPath string
	fsys   durable.FS
}

// New creates a TPM with zeroed PCRs and the given attestation key.
func New(ak *keys.Pair) *TPM {
	return &TPM{counters: make(map[uint32]uint64), ak: ak}
}

// AttestationKey returns the public half of the attestation key, which
// verifiers must know to check quotes.
func (t *TPM) AttestationKey() *keys.Public { return t.ak.Public() }

// Extend folds digest into PCR i: PCR = SHA256(PCR || digest).
func (t *TPM) Extend(i int, digest [32]byte) error {
	if i < 0 || i >= NumPCRs {
		return fmt.Errorf("%w: %d", ErrBadPCR, i)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := sha256.New()
	h.Write(t.pcrs[i][:])
	h.Write(digest[:])
	copy(t.pcrs[i][:], h.Sum(nil))
	return nil
}

// PCR returns the current value of PCR i.
//
//lint:allow deadexport tests read the PCRs that measurement extends
func (t *TPM) PCR(i int) ([32]byte, error) {
	if i < 0 || i >= NumPCRs {
		return [32]byte{}, fmt.Errorf("%w: %d", ErrBadPCR, i)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pcrs[i], nil
}

// Quote is a signed attestation of selected PCR values, bound to a
// verifier-chosen nonce for freshness.
type Quote struct {
	Nonce   []byte
	PCRs    map[int][32]byte
	KeyName string
	Sig     []byte
}

// Quote signs the current values of the selected PCRs together with the
// nonce.
func (t *TPM) Quote(nonce []byte, pcrs ...int) (*Quote, error) {
	t.mu.Lock()
	snapshot := make(map[int][32]byte, len(pcrs))
	for _, i := range pcrs {
		if i < 0 || i >= NumPCRs {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: %d", ErrBadPCR, i)
		}
		snapshot[i] = t.pcrs[i]
	}
	t.mu.Unlock()
	q := &Quote{Nonce: append([]byte(nil), nonce...), PCRs: snapshot, KeyName: t.ak.Name}
	sig, err := t.ak.Sign(q.message())
	if err != nil {
		return nil, err
	}
	q.Sig = sig
	return q, nil
}

// message serializes the quote deterministically for signing.
func (q *Quote) message() []byte {
	buf := make([]byte, 0, 8+len(q.Nonce)+len(q.PCRs)*(4+32))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(q.Nonce)))
	buf = append(buf, n[:]...)
	buf = append(buf, q.Nonce...)
	// PCR indexes in ascending order for determinism.
	for i := 0; i < NumPCRs; i++ {
		v, ok := q.PCRs[i]
		if !ok {
			continue
		}
		var idx [4]byte
		binary.BigEndian.PutUint32(idx[:], uint32(i))
		buf = append(buf, idx[:]...)
		buf = append(buf, v[:]...)
	}
	return buf
}

// Verify checks the quote's signature with ak and that the nonce
// matches the verifier's challenge.
func (q *Quote) Verify(ak *keys.Public, nonce []byte) error {
	if string(nonce) != string(q.Nonce) {
		return fmt.Errorf("%w: nonce mismatch", ErrBadQuote)
	}
	if err := ak.Verify(q.message(), q.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuote, err)
	}
	return nil
}

// IncrementCounter increases monotonic counter id by one and returns
// the new value. Counters start at zero. On a TPM made by Open the new
// value is durable before it is returned: the whole bank is written to
// the NV file with durable.WriteFile. If that write fails the counter
// does not move and the error is returned, so a caller that would sign
// with the value signs nothing. The write happens under the lock, so
// banks reach the file in the order their values were issued.
func (t *TPM) IncrementCounter(id uint32) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.counters[id] + 1
	if t.nvPath != "" {
		bank := maps.Clone(t.counters)
		bank[id] = v
		raw, err := json.Marshal(bank)
		if err == nil {
			err = durable.WriteFile(t.fsys, t.nvPath, raw)
		}
		if err != nil {
			return 0, fmt.Errorf("tpm: persisting counter %d = %d: %w", id, v, err)
		}
	}
	t.counters[id] = v
	return v, nil
}

// ReadCounter returns the current value of monotonic counter id.
func (t *TPM) ReadCounter(id uint32) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[id]
}
