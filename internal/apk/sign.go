package apk

import (
	"errors"
	"fmt"

	"tsr/internal/keys"
)

// ErrUntrusted is returned when no trusted key vouches for a package.
var ErrUntrusted = errors.New("apk: package not signed by a trusted key")

// Sign issues a signature over the package's control segment with the
// given key and records it in the signature segment, replacing any
// existing signature by the same key name.
func Sign(p *Package, pair *keys.Pair) error {
	control, err := p.ControlBytes()
	if err != nil {
		return err
	}
	sig, err := pair.Sign(control)
	if err != nil {
		return err
	}
	if p.Signatures == nil {
		p.Signatures = make(map[string][]byte)
	}
	p.Signatures[pair.Name] = sig
	return nil
}

// VerifyRaw is Walk that keeps a copy of every file: it returns the
// whole package, verified, and the name of the key that vouched for it.
func VerifyRaw(raw []byte, ring *keys.Ring) (*Package, string, error) {
	var files []File
	p, name, err := Walk(raw, ring, collect(&files))
	if err != nil {
		return nil, "", err
	}
	p.Files = files
	return p, name, nil
}

// signedBy returns the name of a ring key whose signature, under its
// own name, p carries over control.
func signedBy(p *Package, control []byte, ring *keys.Ring) (string, error) {
	for name, sig := range p.Signatures {
		if err := ring.VerifyBy(name, control, sig); err == nil {
			return name, nil
		}
	}
	return "", fmt.Errorf("%w: %s-%s (have %d signatures, %d trusted keys)",
		ErrUntrusted, p.Name, p.Version, len(p.Signatures), ring.Len())
}
