// Package keys implements the digital signature scheme used throughout
// the reproduction: RSA-2048 with PKCS#1 v1.5 padding over SHA-256.
// The paper's size accounting ("each signature is 256 bytes") fixes the
// modulus size, matching the abuild RSA keys Alpine Linux uses.
//
// A Ring holds named public keys, modeling both the OS distribution's
// trusted signer list (/etc/apk/keys) and the verifier configuration of
// the integrity monitoring system.
package keys

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// SignatureSize is the byte length of every signature (RSA-2048).
const SignatureSize = 256

// Error sentinels.
var (
	ErrBadSignature = errors.New("keys: signature verification failed")
	ErrUnknownKey   = errors.New("keys: unknown key")
)

// Pair is a named RSA signing key pair.
type Pair struct {
	// Name identifies the key, e.g. "alpine@alpinelinux.org-4a40" or a
	// TSR repository identifier.
	Name string
	priv *rsa.PrivateKey
	ops  atomic.Uint64 // private-key operations made, see PrivateOps
}

// Generate creates a new 2048-bit key pair with the given name.
func Generate(name string) (*Pair, error) {
	priv, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, fmt.Errorf("keys: generating %q: %w", name, err)
	}
	return &Pair{Name: name, priv: priv}, nil
}

// Sign returns the RSA PKCS#1 v1.5 signature of SHA-256(data).
func (p *Pair) Sign(data []byte) ([]byte, error) {
	digest := sha256.Sum256(data)
	p.ops.Add(1)
	sig, err := rsa.SignPKCS1v15(rand.Reader, p.priv, crypto.SHA256, digest[:])
	if err != nil {
		return nil, fmt.Errorf("keys: signing with %q: %w", p.Name, err)
	}
	return sig, nil
}

// SignDigest signs a precomputed SHA-256 digest.
func (p *Pair) SignDigest(digest [32]byte) ([]byte, error) {
	p.ops.Add(1)
	sig, err := rsa.SignPKCS1v15(rand.Reader, p.priv, crypto.SHA256, digest[:])
	if err != nil {
		return nil, fmt.Errorf("keys: signing digest with %q: %w", p.Name, err)
	}
	return sig, nil
}

// PrivateOps returns how many private-key operations (signatures) the
// pair has made. Tests use it to count what a memo saved.
//
//lint:allow deadexport tests count the signatures a memo saves
func (p *Pair) PrivateOps() uint64 { return p.ops.Load() }

// Public returns the public half of the pair.
func (p *Pair) Public() *Public {
	return &Public{Name: p.Name, key: &p.priv.PublicKey}
}

// Public is a named RSA public key.
type Public struct {
	Name string
	key  *rsa.PublicKey
}

// Verify checks sig against SHA-256(data).
func (k *Public) Verify(data, sig []byte) error {
	digest := sha256.Sum256(data)
	if err := rsa.VerifyPKCS1v15(k.key, crypto.SHA256, digest[:], sig); err != nil {
		return fmt.Errorf("%w: key %q", ErrBadSignature, k.Name)
	}
	return nil
}

// VerifyDigest checks sig against a precomputed SHA-256 digest.
func (k *Public) VerifyDigest(digest [32]byte, sig []byte) error {
	if err := rsa.VerifyPKCS1v15(k.key, crypto.SHA256, digest[:], sig); err != nil {
		return fmt.Errorf("%w: key %q", ErrBadSignature, k.Name)
	}
	return nil
}

// MarshalPEM encodes the public key as a PEM block, the format security
// policies embed under signers_keys (Listing 1).
func (k *Public) MarshalPEM() ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(k.key)
	if err != nil {
		return nil, fmt.Errorf("keys: marshaling %q: %w", k.Name, err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: der}), nil
}

// ParsePEM decodes a PEM public key and assigns it the given name.
func ParsePEM(name string, data []byte) (*Public, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "PUBLIC KEY" {
		return nil, fmt.Errorf("keys: %q: no PUBLIC KEY PEM block", name)
	}
	parsed, err := x509.ParsePKIXPublicKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("keys: parsing %q: %w", name, err)
	}
	rsaKey, ok := parsed.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("keys: %q: not an RSA key", name)
	}
	return &Public{Name: name, key: rsaKey}, nil
}

// Fingerprint returns a short hex identifier of the public key, used to
// name signature files (".SIGN.RSA.<name>") and IMA log key IDs.
func (k *Public) Fingerprint() string {
	der, err := x509.MarshalPKIXPublicKey(k.key)
	if err != nil {
		// Marshaling an in-memory RSA key cannot fail in practice.
		return "invalid"
	}
	sum := sha256.Sum256(der)
	return fmt.Sprintf("%x", sum[:4])
}

// Ring is a set of trusted public keys indexed by name. The zero value is
// an empty, usable ring. Ring is safe for concurrent use.
type Ring struct {
	mu   sync.RWMutex
	keys map[string]*Public
}

// NewRing returns a ring containing the given keys.
func NewRing(keys ...*Public) *Ring {
	r := &Ring{}
	for _, k := range keys {
		r.Add(k)
	}
	return r
}

// Add inserts or replaces a key.
func (r *Ring) Add(k *Public) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keys == nil {
		r.keys = make(map[string]*Public)
	}
	r.keys[k.Name] = k
}

// Get returns the key with the given name.
func (r *Ring) Get(name string) (*Public, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.keys[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKey, name)
	}
	return k, nil
}

// Len returns the number of keys.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

// VerifyAny checks sig over data against every key in the ring and
// returns the name of the first key that verifies it, or ErrBadSignature.
func (r *Ring) VerifyAny(data, sig []byte) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, k := range r.keys {
		if err := k.Verify(data, sig); err == nil {
			return k.Name, nil
		}
	}
	return "", fmt.Errorf("%w: no ring key matches", ErrBadSignature)
}

// VerifyAnyDigest checks sig over a precomputed SHA-256 digest against
// every key in the ring, returning the name of the first key that
// verifies it. IMA appraisal uses this to match per-file signatures
// against the trusted signer set.
func (r *Ring) VerifyAnyDigest(digest [32]byte, sig []byte) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, k := range r.keys {
		if err := k.VerifyDigest(digest, sig); err == nil {
			return k.Name, nil
		}
	}
	return "", fmt.Errorf("%w: no ring key matches digest signature", ErrBadSignature)
}

// VerifyBy checks sig over data against the named key.
func (r *Ring) VerifyBy(name string, data, sig []byte) error {
	k, err := r.Get(name)
	if err != nil {
		return err
	}
	return k.Verify(data, sig)
}

// MarshalPrivatePEM encodes the private key as a PKCS#8 PEM block. It
// exists so enclave code can seal a repository signing key into the
// untrusted store for warm restarts — the PEM must only ever travel
// inside a sealed blob.
func (p *Pair) MarshalPrivatePEM() ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(p.priv)
	if err != nil {
		return nil, fmt.Errorf("keys: marshaling private %q: %w", p.Name, err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: der}), nil
}

// ParsePrivatePEM decodes a PKCS#8 private key PEM and assigns it the
// given name — the inverse of MarshalPrivatePEM, used when restoring
// sealed repository state.
func ParsePrivatePEM(name string, data []byte) (*Pair, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "PRIVATE KEY" {
		return nil, fmt.Errorf("keys: %q: no PRIVATE KEY PEM block", name)
	}
	parsed, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("keys: parsing private %q: %w", name, err)
	}
	rsaKey, ok := parsed.(*rsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("keys: %q: not an RSA private key", name)
	}
	return &Pair{Name: name, priv: rsaKey}, nil
}
