package keys

import (
	"bytes"
	"errors"
	"testing"
)

func testPair(t *testing.T, name string) *Pair {
	t.Helper()
	p, err := Shared.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSignVerifyRoundtrip(t *testing.T) {
	p := testPair(t, "signer-a")
	data := []byte("package control segment")
	sig, err := p.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != SignatureSize {
		t.Fatalf("signature size = %d, want %d (paper: 256-byte signatures)", len(sig), SignatureSize)
	}
	if err := p.Public().Verify(data, sig); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	p := testPair(t, "signer-a")
	data := []byte("original")
	sig, err := p.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Public().Verify([]byte("tampered"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered data: err = %v", err)
	}
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0xff
	if err := p.Public().Verify(data, bad); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered sig: err = %v", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	a := testPair(t, "signer-a")
	b := testPair(t, "signer-b")
	sig, err := a.Sign([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Public().Verify([]byte("data"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong key: err = %v", err)
	}
}

func TestSignDigest(t *testing.T) {
	p := testPair(t, "signer-a")
	var digest [32]byte
	copy(digest[:], bytes.Repeat([]byte{7}, 32))
	sig, err := p.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Public().VerifyDigest(digest, sig); err != nil {
		t.Fatal(err)
	}
	digest[0] = 8
	if err := p.Public().VerifyDigest(digest, sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong digest: err = %v", err)
	}
}

func TestPEMRoundtrip(t *testing.T) {
	p := testPair(t, "signer-a")
	pemBytes, err := p.Public().MarshalPEM()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(pemBytes, []byte("BEGIN PUBLIC KEY")) {
		t.Fatalf("PEM = %q", pemBytes)
	}
	parsed, err := ParsePEM("reparsed", pemBytes)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := p.Sign([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := parsed.Verify([]byte("x"), sig); err != nil {
		t.Fatalf("parsed key does not verify: %v", err)
	}
	if parsed.Fingerprint() != p.Public().Fingerprint() {
		t.Fatal("fingerprint changed across PEM roundtrip")
	}
}

func TestParsePEMErrors(t *testing.T) {
	if _, err := ParsePEM("x", []byte("not pem")); err == nil {
		t.Error("garbage input: want error")
	}
	if _, err := ParsePEM("x", []byte("-----BEGIN CERTIFICATE-----\nAA==\n-----END CERTIFICATE-----\n")); err == nil {
		t.Error("wrong block type: want error")
	}
}

func TestFingerprintStable(t *testing.T) {
	p := testPair(t, "signer-a")
	f1 := p.Public().Fingerprint()
	f2 := p.Public().Fingerprint()
	if f1 != f2 || len(f1) != 8 {
		t.Fatalf("fingerprints: %q, %q", f1, f2)
	}
	q := testPair(t, "signer-b")
	if q.Public().Fingerprint() == f1 {
		t.Fatal("distinct keys share a fingerprint")
	}
}

func TestRing(t *testing.T) {
	a := testPair(t, "signer-a")
	b := testPair(t, "signer-b")
	r := NewRing(a.Public(), b.Public())
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if _, err := r.Get("signer-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("missing"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestRingVerifyAny(t *testing.T) {
	a := testPair(t, "signer-a")
	b := testPair(t, "signer-b")
	c := testPair(t, "signer-c")
	r := NewRing(a.Public(), b.Public())
	sig, err := b.Sign([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	name, err := r.VerifyAny([]byte("data"), sig)
	if err != nil || name != "signer-b" {
		t.Fatalf("VerifyAny = %q, %v", name, err)
	}
	// A signature from an untrusted key must not verify.
	outsider, err := c.Sign([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.VerifyAny([]byte("data"), outsider); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("outsider: err = %v", err)
	}
}

func TestRingVerifyBy(t *testing.T) {
	a := testPair(t, "signer-a")
	r := NewRing(a.Public())
	sig, err := a.Sign([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyBy("signer-a", []byte("data"), sig); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyBy("missing", []byte("data"), sig); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestZeroValueRing(t *testing.T) {
	var r Ring
	if r.Len() != 0 {
		t.Fatal("zero ring not empty")
	}
	a := testPair(t, "signer-a")
	r.Add(a.Public())
	if r.Len() != 1 {
		t.Fatal("Add on zero ring failed")
	}
}

func TestPoolCaches(t *testing.T) {
	var p Pool
	a1, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("pool regenerated key")
	}
	if p.MustGet("k") != a1 {
		t.Fatal("MustGet mismatch")
	}
}
