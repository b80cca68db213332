// Package ima simulates the Linux kernel integrity measurement
// architecture (IMA) over the virtual filesystem: every file is measured
// (hashed) before it is "loaded", the measurement is appended to the IMA
// log together with the file's security.ima signature (read from its
// extended attributes, §5.3), and the log entry's template hash is
// extended into TPM PCR 10.
//
// With appraisal enabled (IMA-appraisal, §3.2), the kernel additionally
// refuses to load files whose signature does not verify against the
// trusted keyring — the local enforcement counterpart of remote
// attestation.
package ima

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"tsr/internal/keys"
	"tsr/internal/tpm"
	"tsr/internal/vfs"
)

// XattrIMA is the extended attribute carrying a file's signature.
const XattrIMA = "security.ima"

// Error sentinels.
var (
	ErrAppraisal = errors.New("ima: appraisal denied file")
	ErrNoTPM     = errors.New("ima: no TPM attached")
)

// Entry is one IMA log record (ima-sig template: PCR, template hash,
// file hash, path, signature).
type Entry struct {
	// PCR is the PCR the entry was extended into (always 10 here).
	PCR int
	// Path is the measured file path.
	Path string
	// FileHash is SHA-256 of the file content.
	FileHash [32]byte
	// Sig is the file's security.ima signature (nil if the file carries
	// none — e.g. files installed before signature support).
	Sig []byte
}

// TemplateHash is the digest extended into the PCR for this entry.
func (e Entry) TemplateHash() [32]byte {
	h := sha256.New()
	h.Write(e.FileHash[:])
	h.Write([]byte(e.Path))
	h.Write(e.Sig)
	return [32]byte(h.Sum(nil))
}

// IMA is the measurement engine for one OS instance.
type IMA struct {
	fs  *vfs.FS
	tpm *tpm.TPM

	mu        sync.Mutex
	log       []Entry
	appraisal *keys.Ring // nil: measurement-only (no enforcement)
}

// New creates an IMA engine measuring files from fs into t's PCR 10.
func New(fs *vfs.FS, t *tpm.TPM) *IMA {
	return &IMA{fs: fs, tpm: t}
}

// EnableAppraisal turns on IMA-appraisal against the given trusted
// keyring: subsequently measured files must carry a valid signature.
//
//lint:allow deadexport tests turn appraisal on to check signed files end to end
func (m *IMA) EnableAppraisal(ring *keys.Ring) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appraisal = ring
}

// MeasureFile measures the file at path: hashes its content, reads its
// security.ima xattr, appends a log entry, and extends PCR 10. With
// appraisal enabled it returns ErrAppraisal (before logging) if the
// signature is missing or does not verify.
func (m *IMA) MeasureFile(path string) (Entry, error) {
	sum, err := m.fs.Digest(path)
	if err != nil {
		return Entry{}, fmt.Errorf("ima: measuring %q: %w", path, err)
	}
	return m.measure(path, sum)
}

// MeasureChanged measures the file at path as MeasureFile does unless
// its content still hashes to last, the hash it was last measured
// with: the file is hashed once either way, and an unchanged file is
// neither logged nor extended. The entry returned carries the content
// hash in both cases — modeling IMA's re-measurement of a file only
// after it was modified.
func (m *IMA) MeasureChanged(path string, last [32]byte) (Entry, error) {
	sum, err := m.fs.Digest(path)
	if err != nil {
		return Entry{}, fmt.Errorf("ima: measuring %q: %w", path, err)
	}
	if sum == last {
		return Entry{PCR: tpm.PCRIMA, Path: path, FileHash: sum}, nil
	}
	return m.measure(path, sum)
}

// measure logs and extends the file at path, whose content hashes to
// sum, after appraising it when appraisal is on.
func (m *IMA) measure(path string, sum [32]byte) (Entry, error) {
	e := Entry{PCR: tpm.PCRIMA, Path: path, FileHash: sum}
	if sig, err := m.fs.GetXattr(path, XattrIMA); err == nil {
		e.Sig = sig
	}
	m.mu.Lock()
	ring := m.appraisal
	m.mu.Unlock()
	if ring != nil {
		if e.Sig == nil {
			return Entry{}, fmt.Errorf("%w: %q has no %s signature", ErrAppraisal, path, XattrIMA)
		}
		if _, err := ring.VerifyAnyDigest(e.FileHash, e.Sig); err != nil {
			return Entry{}, fmt.Errorf("%w: %q: %v", ErrAppraisal, path, err)
		}
	}
	if m.tpm == nil {
		return Entry{}, ErrNoTPM
	}
	if err := m.tpm.Extend(tpm.PCRIMA, e.TemplateHash()); err != nil {
		return Entry{}, err
	}
	m.mu.Lock()
	m.log = append(m.log, e)
	m.mu.Unlock()
	return e, nil
}

// MeasureTree measures every regular file under root in path order,
// as boot-time IMA does for an initramfs, or as the package manager
// triggers for freshly installed files.
func (m *IMA) MeasureTree(root string) error {
	var paths []string
	err := m.fs.Walk(root, func(info vfs.FileInfo) error {
		if info.Type == vfs.Regular {
			paths = append(paths, info.Path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range paths {
		if _, err := m.MeasureFile(p); err != nil {
			return err
		}
	}
	return nil
}

// Log returns a copy of the measurement log.
func (m *IMA) Log() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Entry, len(m.log))
	copy(out, m.log)
	return out
}

// ReplayPCR computes the PCR-10 value implied by a measurement log.
// Verifiers compare it against the quoted PCR to detect log tampering.
func ReplayPCR(log []Entry) [32]byte {
	var pcr [32]byte
	for _, e := range log {
		th := e.TemplateHash()
		h := sha256.New()
		h.Write(pcr[:])
		h.Write(th[:])
		copy(pcr[:], h.Sum(nil))
	}
	return pcr
}

// SignFileDigest issues a security.ima signature for a file content
// digest with the given key — the operation the OS distribution (or TSR
// during sanitization) performs at package build time.
func SignFileDigest(pair *keys.Pair, content []byte) ([]byte, error) {
	digest := sha256.Sum256(content)
	return pair.SignDigest(digest)
}
