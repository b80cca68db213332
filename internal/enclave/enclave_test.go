package enclave

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"tsr/internal/keys"
)

func newTestPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(keys.Shared.MustGet("platform-quoting"))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSealUnsealRoundtrip(t *testing.T) {
	p := newTestPlatform(t)
	e := p.Launch(MeasureCode("tsr-v1"))
	secret := []byte("metadata indexes + monotonic counter value")
	blob, err := e.Seal(secret)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, secret) {
		t.Fatal("sealed blob leaks plaintext")
	}
	got, err := e.Unseal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("unsealed = %q", got)
	}
}

// TestSealConcurrent: one launched enclave's AES-GCM instance is shared
// by every call, so goroutines interleave Seal and Unseal on it, each
// sealing its own payloads and unsealing them again, as well as blobs
// another goroutine sealed before the start.
func TestSealConcurrent(t *testing.T) {
	e := newTestPlatform(t).Launch(MeasureCode("tsr-v1"))
	const workers, rounds = 8, 200
	shared := make([][]byte, workers)
	for i := range shared {
		blob, err := e.Seal([]byte(fmt.Sprintf("shared payload %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = blob
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				want := bytes.Repeat([]byte(fmt.Sprintf("worker %d round %d;", w, i)), 1+i%16)
				blob, err := e.Seal(want)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := e.Unseal(blob)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("worker %d round %d: unsealed %q, %v", w, i, got, err)
					return
				}
				other := (w + i) % workers
				got, err = e.Unseal(shared[other])
				if err != nil || string(got) != fmt.Sprintf("shared payload %d", other) {
					t.Errorf("worker %d round %d: shared blob %d unsealed %q, %v", w, i, other, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestUnsealRejectsDifferentEnclave(t *testing.T) {
	p := newTestPlatform(t)
	e1 := p.Launch(MeasureCode("tsr-v1"))
	e2 := p.Launch(MeasureCode("malicious-v1"))
	blob, err := e1.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Unseal(blob); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("different code unsealed: err = %v", err)
	}
}

func TestUnsealRejectsDifferentPlatform(t *testing.T) {
	// "only the same enclave running on the same CPU can unseal" (§5.5).
	p1 := newTestPlatform(t)
	p2, err := NewPlatform(keys.Shared.MustGet("platform-quoting"))
	if err != nil {
		t.Fatal(err)
	}
	m := MeasureCode("tsr-v1")
	blob, err := p1.Launch(m).Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Launch(m).Unseal(blob); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("different platform unsealed: err = %v", err)
	}
}

func TestUnsealRejectsTamper(t *testing.T) {
	p := newTestPlatform(t)
	e := p.Launch(MeasureCode("tsr-v1"))
	blob, err := e.Seal([]byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if _, err := e.Unseal(blob); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.Unseal([]byte{1, 2}); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("short blob: err = %v", err)
	}
}

func TestSealNondeterministicNonce(t *testing.T) {
	p := newTestPlatform(t)
	e := p.Launch(MeasureCode("tsr-v1"))
	b1, err := e.Seal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := e.Seal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b2) {
		t.Fatal("sealing reuses nonces")
	}
}

func TestAttestVerify(t *testing.T) {
	p := newTestPlatform(t)
	m := MeasureCode("tsr-v1")
	e := p.Launch(m)
	var rd [64]byte
	h := sha256.Sum256([]byte("tsr public signing key"))
	copy(rd[:], h[:])
	rep, err := e.Attest(rd)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(p.QuotingKey(), m); err != nil {
		t.Fatal(err)
	}
}

func TestAttestVerifyRejectsWrongMeasurement(t *testing.T) {
	p := newTestPlatform(t)
	e := p.Launch(MeasureCode("malicious"))
	rep, err := e.Attest([64]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(p.QuotingKey(), MeasureCode("tsr-v1")); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v", err)
	}
}

func TestAttestVerifyRejectsForgedReportData(t *testing.T) {
	p := newTestPlatform(t)
	m := MeasureCode("tsr-v1")
	rep, err := p.Launch(m).Attest([64]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	rep.ReportData[0] = 2 // adversary swaps in their own key hash
	if err := rep.Verify(p.QuotingKey(), m); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v", err)
	}
}

func TestAttestVerifyRejectsWrongQuotingKey(t *testing.T) {
	p := newTestPlatform(t)
	m := MeasureCode("tsr-v1")
	rep, err := p.Launch(m).Attest([64]byte{})
	if err != nil {
		t.Fatal(err)
	}
	other := keys.Shared.MustGet("rogue-quoting")
	if err := rep.Verify(other.Public(), m); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v", err)
	}
}

func TestCostModelRegimes(t *testing.T) {
	m := DefaultCostModel()
	// In-EPC: constant base factor (paper: ~1.18x median).
	if f := m.Factor(1 << 20); f != 1.18 {
		t.Fatalf("small working set factor = %v", f)
	}
	if f := m.Factor(DefaultEPCBytes); f != 1.18 {
		t.Fatalf("at-EPC factor = %v", f)
	}
	// Just past EPC: between base and paging factor.
	f := m.Factor(DefaultEPCBytes + DefaultEPCBytes/2)
	if f <= 1.18 || f >= 1.96 {
		t.Fatalf("mid factor = %v", f)
	}
	// Far past EPC: saturates at paging factor (paper: ~1.96x).
	if f := m.Factor(10 * DefaultEPCBytes); math.Abs(f-1.96) > 1e-9 {
		t.Fatalf("saturated factor = %v", f)
	}
}

func TestCostModelMonotone(t *testing.T) {
	m := DefaultCostModel()
	prev := 0.0
	for _, ws := range []int64{1 << 10, 1 << 25, DefaultEPCBytes, DefaultEPCBytes * 3 / 2, DefaultEPCBytes * 2, DefaultEPCBytes * 4} {
		f := m.Factor(ws)
		if f < prev {
			t.Fatalf("factor decreased at ws=%d: %v < %v", ws, f, prev)
		}
		prev = f
	}
}

func TestCostModelOverhead(t *testing.T) {
	m := DefaultCostModel()
	native := 100 * time.Millisecond
	over := m.Overhead(1<<20, native)
	want := 18 * time.Millisecond
	if d := over - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("overhead = %v, want ~%v", over, want)
	}
	// Disabled model (factor <= 1) adds nothing.
	none := CostModel{EPCBytes: DefaultEPCBytes, BaseFactor: 1.0, PagingFactor: 1.0}
	if got := none.Overhead(1<<20, native); got != 0 {
		t.Fatalf("no-op model overhead = %v", got)
	}
}

func TestExceedsEPC(t *testing.T) {
	m := DefaultCostModel()
	if m.ExceedsEPC(DefaultEPCBytes) {
		t.Fatal("exactly EPC should not exceed")
	}
	if !m.ExceedsEPC(DefaultEPCBytes + 1) {
		t.Fatal("EPC+1 should exceed")
	}
	disabled := CostModel{EPCBytes: 0}
	if disabled.ExceedsEPC(1 << 40) {
		t.Fatal("disabled model should never exceed")
	}
}

func TestMeasureCodeDistinct(t *testing.T) {
	if MeasureCode("a") == MeasureCode("b") {
		t.Fatal("measurements collide")
	}
	if MeasureCode("a") != MeasureCode("a") {
		t.Fatal("measurement not deterministic")
	}
}
