// Package repo implements the original software repository (§2.1): the
// root of trust for software updates, owned by the OS distribution
// community. It stores encoded packages, maintains the signed metadata
// index (with an increasing sequence number per publication), and hands
// read-only snapshots to mirrors.
package repo

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/keys"
)

// ErrNoPackage is returned when a requested package is not in the
// repository.
var ErrNoPackage = errors.New("repo: no such package")

// Repository is the original repository. All methods are safe for
// concurrent use.
type Repository struct {
	origin string
	signer *keys.Pair

	mu sync.RWMutex
	// packages maps a name to its current encoded package. A stored
	// slice is never written after it is stored: a new version replaces
	// it, so snapshots share the slices.
	packages map[string][]byte
	idx      *index.Index
	signed   *index.Signed
}

// New creates an empty repository. origin names it in the index; signer
// is the distribution's index signing key.
func New(origin string, signer *keys.Pair) *Repository {
	return &Repository{
		origin:   origin,
		signer:   signer,
		packages: make(map[string][]byte),
		idx:      &index.Index{Origin: origin, Sequence: 0},
	}
}

// Origin returns the repository's origin name.
func (r *Repository) Origin() string { return r.origin }

// IndexKey returns the public index signing key end users trust.
func (r *Repository) IndexKey() *keys.Public { return r.signer.Public() }

// Publish encodes and stores packages, updates the index, and re-signs
// it with an incremented sequence number. Publishing an already-present
// package name replaces it (a version update).
func (r *Repository) Publish(pkgs ...*apk.Package) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range pkgs {
		raw, err := apk.Encode(p)
		if err != nil {
			return fmt.Errorf("repo: publishing %s: %w", p.Name, err)
		}
		r.packages[p.Name] = raw
		r.idx.Add(index.Entry{
			Name:    p.Name,
			Version: p.Version,
			Size:    int64(len(raw)),
			Hash:    sha256.Sum256(raw),
			Depends: append([]string(nil), p.Depends...),
		})
	}
	return r.resignLocked()
}

// PublishRaw stores an already-encoded package under the given identity.
// TSR uses this path to publish sanitized packages it re-encoded itself.
func (r *Repository) PublishRaw(name, version string, depends []string, raw []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.packages[name] = append([]byte(nil), raw...)
	r.idx.Add(index.Entry{
		Name:    name,
		Version: version,
		Size:    int64(len(raw)),
		Hash:    sha256.Sum256(raw),
		Depends: append([]string(nil), depends...),
	})
	return r.resignLocked()
}

// resignLocked bumps the sequence and re-signs the index. Caller holds mu.
func (r *Repository) resignLocked() error {
	r.idx.Sequence++
	signed, err := index.Sign(r.idx, r.signer)
	if err != nil {
		return fmt.Errorf("repo: signing index: %w", err)
	}
	r.signed = signed
	return nil
}

// SignedIndex returns the current signed index. It is nil until the
// first Publish.
func (r *Repository) SignedIndex() *index.Signed {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.signed == nil {
		return nil
	}
	return r.signed.Clone()
}

// Index returns a decoded copy of the current index.
func (r *Repository) Index() *index.Index {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cp := *r.idx
	cp.Entries = append([]index.Entry(nil), r.idx.Entries...)
	return &cp
}

// Fetch returns a private copy of the encoded bytes of the named
// package.
func (r *Repository) Fetch(name string) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	raw, ok := r.packages[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPackage, name)
	}
	return append([]byte(nil), raw...), nil
}

// Snapshot captures the repository state at a point in time; mirrors
// serve snapshots.
type Snapshot struct {
	Signed *index.Signed
	// Packages shares the repository's stored slices, so a snapshot
	// costs one map, not a copy of the catalog. They are read-only: a
	// holder that must change bytes copies them first.
	Packages map[string][]byte
}

// Snapshot returns the current state. The map is the snapshot's own;
// the package bytes are the repository's, shared read-only.
func (r *Repository) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{Packages: make(map[string][]byte, len(r.packages))}
	if r.signed != nil {
		s.Signed = r.signed.Clone()
	}
	for name, raw := range r.packages {
		s.Packages[name] = raw
	}
	return s
}
