// Package enclave simulates the Intel SGX trusted execution environment
// TSR runs in (§4.4, §5). It models the three properties TSR relies on:
//
//   - confidentiality: signing keys generated inside the enclave never
//     leave it; sealed blobs are bound to the (platform, enclave
//     measurement) pair, like SGX sealing with the MRENCLAVE policy;
//   - attestation: a platform quoting key signs enclave reports so a
//     remote party can verify what code runs inside which platform
//     (standing in for EPID/DCAP and the IAS);
//   - the EPC limit: working sets larger than the enclave page cache
//     (128 MB on SGXv1) suffer paging overhead. The CostModel reproduces
//     the two regimes of Figure 12 — a constant ~1.18x in-enclave factor
//     and up to ~1.96x when a package exceeds the EPC.
package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"time"

	"tsr/internal/keys"
)

// DefaultEPCBytes is the SGXv1 enclave page cache size the paper's
// testbed reserves ("We statically configured SGX to reserve 128 MB of
// RAM for the enclave page cache").
const DefaultEPCBytes = 128 << 20

// Error sentinels.
var (
	ErrSealBroken    = errors.New("enclave: sealed blob corrupt or from a different enclave")
	ErrBadReport     = errors.New("enclave: attestation report verification failed")
	ErrNotProvisoned = errors.New("enclave: platform has no quoting key")
)

// Measurement identifies enclave code (MRENCLAVE).
type Measurement [32]byte

// MeasureCode derives a Measurement from a code identity string.
func MeasureCode(identity string) Measurement {
	return Measurement(sha256.Sum256([]byte("enclave-code:" + identity)))
}

// Platform models one SGX-capable CPU: it owns the root sealing secret
// (fused into the CPU) and the quoting key used for remote attestation.
type Platform struct {
	sealRoot [32]byte
	quoting  *keys.Pair
}

// NewPlatform creates a platform with a fresh sealing root and the given
// quoting key (standing in for the provisioned EPID/DCAP key).
func NewPlatform(quoting *keys.Pair) (*Platform, error) {
	p := &Platform{quoting: quoting}
	if _, err := rand.Read(p.sealRoot[:]); err != nil {
		return nil, fmt.Errorf("enclave: platform init: %w", err)
	}
	return p, nil
}

// NewPlatformWithSealRoot creates a platform whose sealing root is
// caller-provided instead of random. Real SGX sealing keys are fused
// into the CPU and survive process restarts and reboots; a daemon that
// wants sealed state to be recoverable after a restart must therefore
// model "the same CPU" by reusing the root (tsrd persists it in its
// trusted host-state file, standing in for the hardware). The root is
// as sensitive as every blob sealed under it — it must never live in
// the untrusted store.
func NewPlatformWithSealRoot(quoting *keys.Pair, sealRoot [32]byte) *Platform {
	return &Platform{quoting: quoting, sealRoot: sealRoot}
}

// QuotingKey returns the public quoting key remote verifiers trust
// (the IAS root of trust analogue).
func (p *Platform) QuotingKey() *keys.Public { return p.quoting.Public() }

// Enclave is a launched enclave instance on a platform.
type Enclave struct {
	platform    *Platform
	measurement Measurement
	// seal is AES-256-GCM under the sealing key. It is built once at
	// launch and holds only read-only state after that, so concurrent
	// Seal and Unseal calls share it.
	seal cipher.AEAD
}

// Launch instantiates enclave code on a platform. The sealing key is
// derived from the platform root and the code measurement, so only the
// same code on the same platform can unseal ("The SGX sealing ... uses a
// CPU- and enclave-specific key", §5.5).
func (p *Platform) Launch(m Measurement) *Enclave {
	h := sha256.New()
	h.Write(p.sealRoot[:])
	h.Write(m[:])
	block, err := aes.NewCipher(h.Sum(nil))
	if err != nil {
		panic("enclave: a 32-byte key is a valid AES-256 key: " + err.Error())
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic("enclave: AES has a 16-byte block, as GCM requires: " + err.Error())
	}
	return &Enclave{platform: p, measurement: m, seal: gcm}
}

// Seal encrypts data so that only this enclave (same code, same
// platform) can recover it. The ciphertext is AES-256-GCM with a random
// nonce prepended.
func (e *Enclave) Seal(data []byte) ([]byte, error) {
	ns := e.seal.NonceSize()
	out := make([]byte, ns, ns+len(data)+e.seal.Overhead())
	if _, err := io.ReadFull(rand.Reader, out); err != nil {
		return nil, fmt.Errorf("enclave: sealing: %w", err)
	}
	return e.seal.Seal(out, out, data, e.measurement[:]), nil
}

// Unseal decrypts a blob produced by Seal on the same enclave identity.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	ns := e.seal.NonceSize()
	if len(blob) < ns {
		return nil, fmt.Errorf("%w: too short", ErrSealBroken)
	}
	pt, err := e.seal.Open(nil, blob[:ns], blob[ns:], e.measurement[:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSealBroken, err)
	}
	return pt, nil
}

// Report is a remote attestation report: it binds enclave-chosen report
// data (e.g. the hash of a freshly generated public key) to the enclave
// measurement, signed by the platform quoting key.
type Report struct {
	Measurement Measurement
	ReportData  [64]byte
	KeyName     string
	Sig         []byte
}

// Attest produces a report over reportData.
func (e *Enclave) Attest(reportData [64]byte) (*Report, error) {
	if e.platform.quoting == nil {
		return nil, ErrNotProvisoned
	}
	r := &Report{
		Measurement: e.measurement,
		ReportData:  reportData,
		KeyName:     e.platform.quoting.Name,
	}
	sig, err := e.platform.quoting.Sign(r.message())
	if err != nil {
		return nil, err
	}
	r.Sig = sig
	return r, nil
}

func (r *Report) message() []byte {
	msg := make([]byte, 0, 32+64)
	msg = append(msg, r.Measurement[:]...)
	msg = append(msg, r.ReportData[:]...)
	return msg
}

// Verify checks the report signature and that the reported measurement
// matches the expected code identity. This is what the OS owner does
// during policy deployment (Figure 7, step 1): "ensuring that TSR
// executes inside an enclave on the genuine Intel CPU".
func (r *Report) Verify(quoting *keys.Public, expected Measurement) error {
	if r.Measurement != expected {
		return fmt.Errorf("%w: measurement mismatch (got %x..., want %x...)",
			ErrBadReport, r.Measurement[:4], expected[:4])
	}
	if err := quoting.Verify(r.message(), r.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	return nil
}

// CostModel computes the virtual-time overhead of executing inside the
// enclave. Calibrated to the paper's Figure 12:
//
//   - packages fitting in the EPC run ~1.12-1.18x slower inside SGX
//     (transition and MEE overhead);
//   - packages whose working set exceeds the EPC pay EPC paging,
//     raising the factor to ~1.96x at the top percentiles.
type CostModel struct {
	// EPCBytes is the usable enclave page cache size.
	EPCBytes int64
	// BaseFactor is the in-EPC slowdown factor (>= 1).
	BaseFactor float64
	// PagingFactor is the asymptotic slowdown for working sets far
	// beyond the EPC.
	PagingFactor float64
}

// DefaultCostModel returns the model calibrated to the paper's testbed.
func DefaultCostModel() CostModel {
	return CostModel{
		EPCBytes:     DefaultEPCBytes,
		BaseFactor:   1.18,
		PagingFactor: 1.96,
	}
}

// Factor returns the slowdown factor for a given working-set size.
// Below the EPC it is BaseFactor; above, it ramps linearly with the
// fraction of the working set that does not fit, saturating at
// PagingFactor once the working set is twice the EPC.
func (m CostModel) Factor(workingSet int64) float64 {
	if m.EPCBytes <= 0 || workingSet <= m.EPCBytes {
		return m.BaseFactor
	}
	excess := float64(workingSet-m.EPCBytes) / float64(m.EPCBytes)
	if excess > 1 {
		excess = 1
	}
	return m.BaseFactor + (m.PagingFactor-m.BaseFactor)*excess
}

// SharedFactor returns the slowdown factor when several packages are
// sanitized concurrently inside one enclave. Worker threads share the
// EPC, so paging pressure is driven by the combined working set of the
// batch, not by each package alone: a batch of small packages can
// collectively spill out of the EPC even though none would on its own.
func (m CostModel) SharedFactor(workingSets []int64) float64 {
	var sum int64
	for _, ws := range workingSets {
		sum += ws
	}
	return m.Factor(sum)
}

// Overhead converts a natively measured duration into the extra virtual
// time SGX execution would add for the given working set.
func (m CostModel) Overhead(workingSet int64, native time.Duration) time.Duration {
	f := m.Factor(workingSet)
	if f <= 1 {
		return 0
	}
	return time.Duration(float64(native) * (f - 1))
}

// ExceedsEPC reports whether a working set spills out of the EPC — the
// "Exceeds EPC" marker of Figure 8.
func (m CostModel) ExceedsEPC(workingSet int64) bool {
	return m.EPCBytes > 0 && workingSet > m.EPCBytes
}
