package tpm

import (
	"crypto/sha256"
	"errors"
	"sync"
	"testing"

	"tsr/internal/keys"
)

func newTestTPM(t *testing.T) *TPM {
	t.Helper()
	return New(keys.Shared.MustGet("tpm-ak"))
}

func TestExtendChangesPCR(t *testing.T) {
	tp := newTestTPM(t)
	zero, err := tp.PCR(PCRIMA)
	if err != nil {
		t.Fatal(err)
	}
	if zero != ([32]byte{}) {
		t.Fatal("fresh PCR not zero")
	}
	if err := tp.Extend(PCRIMA, sha256.Sum256([]byte("m1"))); err != nil {
		t.Fatal(err)
	}
	v1, _ := tp.PCR(PCRIMA)
	if v1 == zero {
		t.Fatal("extend did not change PCR")
	}
}

func TestExtendOrderMatters(t *testing.T) {
	a, b := newTestTPM(t), newTestTPM(t)
	d1 := sha256.Sum256([]byte("m1"))
	d2 := sha256.Sum256([]byte("m2"))
	a.Extend(PCRIMA, d1)
	a.Extend(PCRIMA, d2)
	b.Extend(PCRIMA, d2)
	b.Extend(PCRIMA, d1)
	va, _ := a.PCR(PCRIMA)
	vb, _ := b.PCR(PCRIMA)
	if va == vb {
		t.Fatal("PCR must depend on extend order")
	}
}

func TestExtendReplayable(t *testing.T) {
	// A verifier replaying the same measurement log must arrive at the
	// same PCR value — the foundation of IMA log verification.
	tp := newTestTPM(t)
	logDigests := [][32]byte{
		sha256.Sum256([]byte("boot")),
		sha256.Sum256([]byte("kernel")),
		sha256.Sum256([]byte("/usr/bin/x")),
	}
	for _, d := range logDigests {
		tp.Extend(PCRIMA, d)
	}
	var replay [32]byte
	for _, d := range logDigests {
		h := sha256.New()
		h.Write(replay[:])
		h.Write(d[:])
		copy(replay[:], h.Sum(nil))
	}
	got, _ := tp.PCR(PCRIMA)
	if got != replay {
		t.Fatal("replayed PCR differs from TPM PCR")
	}
}

func TestPCRBounds(t *testing.T) {
	tp := newTestTPM(t)
	if err := tp.Extend(-1, [32]byte{}); !errors.Is(err, ErrBadPCR) {
		t.Fatalf("err = %v", err)
	}
	if err := tp.Extend(NumPCRs, [32]byte{}); !errors.Is(err, ErrBadPCR) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tp.PCR(99); !errors.Is(err, ErrBadPCR) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tp.Quote([]byte("n"), 99); !errors.Is(err, ErrBadPCR) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuoteVerify(t *testing.T) {
	tp := newTestTPM(t)
	tp.Extend(PCRIMA, sha256.Sum256([]byte("m")))
	nonce := []byte("verifier-nonce-123")
	q, err := tp.Quote(nonce, 0, PCRIMA)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Verify(tp.AttestationKey(), nonce); err != nil {
		t.Fatal(err)
	}
	pcr, _ := tp.PCR(PCRIMA)
	if q.PCRs[PCRIMA] != pcr {
		t.Fatal("quote PCR snapshot mismatch")
	}
}

func TestQuoteRejectsWrongNonce(t *testing.T) {
	tp := newTestTPM(t)
	q, err := tp.Quote([]byte("nonce-a"), PCRIMA)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Verify(tp.AttestationKey(), []byte("nonce-b")); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuoteRejectsTamperedPCR(t *testing.T) {
	tp := newTestTPM(t)
	tp.Extend(PCRIMA, sha256.Sum256([]byte("m")))
	nonce := []byte("n")
	q, err := tp.Quote(nonce, PCRIMA)
	if err != nil {
		t.Fatal(err)
	}
	q.PCRs[PCRIMA] = sha256.Sum256([]byte("forged"))
	if err := q.Verify(tp.AttestationKey(), nonce); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuoteRejectsWrongKey(t *testing.T) {
	tp := newTestTPM(t)
	other := keys.Shared.MustGet("other-ak")
	nonce := []byte("n")
	q, err := tp.Quote(nonce, PCRIMA)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Verify(other.Public(), nonce); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("err = %v", err)
	}
}

func TestMonotonicCounter(t *testing.T) {
	tp := newTestTPM(t)
	if got := tp.ReadCounter(1); got != 0 {
		t.Fatalf("fresh counter = %d", got)
	}
	for want := uint64(1); want <= 2; want++ {
		if got, err := tp.IncrementCounter(1); got != want || err != nil {
			t.Fatalf("increment = %d, %v, want %d", got, err, want)
		}
	}
	if got := tp.ReadCounter(2); got != 0 {
		t.Fatalf("independent counter = %d", got)
	}
}

func TestMonotonicCounterConcurrent(t *testing.T) {
	tp := newTestTPM(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := tp.IncrementCounter(7); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := tp.ReadCounter(7); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}
