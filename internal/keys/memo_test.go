package keys

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
)

func digestOf(i int) [32]byte { return sha256.Sum256([]byte(fmt.Sprintf("file-%d", i))) }

func TestMemoSignsLikeThePair(t *testing.T) {
	p := testPair(t, "memo-signer")
	m := NewMemo(p)
	data := []byte("usr/bin/probe contents")
	want, err := p.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	before := p.PrivateOps()
	cold, err := m.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := m.Sign(data)
	if err != nil {
		t.Fatal(err)
	}
	if ops := p.PrivateOps() - before; ops != 1 {
		t.Fatalf("cold + warm sign made %d private operations, want 1", ops)
	}
	if !bytes.Equal(cold, want) || !bytes.Equal(warm, want) {
		t.Fatal("memo signature differs from the pair's")
	}
	if err := p.Public().Verify(data, warm); err != nil {
		t.Fatal(err)
	}
}

func TestMemoHitReturnsCopy(t *testing.T) {
	p := testPair(t, "memo-signer")
	m := NewMemo(p)
	d := digestOf(1)
	first, err := m.signDigest(d)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first)
	for i := range first {
		first[i] = 0
	}
	hit, err := m.signDigest(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit, want) {
		t.Fatal("mutating a miss's result changed the memo")
	}
	hit[0] ^= 0xff
	again, err := m.signDigest(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("mutating a hit's result changed the next hit")
	}
}

func TestMemoBounded(t *testing.T) {
	const limit = 8
	p := testPair(t, "memo-signer")
	m := newMemo(p, limit)
	hot := digestOf(-1)
	if _, err := m.signDigest(hot); err != nil {
		t.Fatal(err)
	}
	before := p.PrivateOps()
	for i := range 10 * limit {
		if _, err := m.signDigest(digestOf(i)); err != nil {
			t.Fatal(err)
		}
		if n := m.size(); n > 2*limit {
			t.Fatalf("after %d signatures the memo holds %d, want <= %d", i+1, n, 2*limit)
		}
		// A digest in use is promoted on every hit, so rotations
		// never drop it.
		if _, err := m.signDigest(hot); err != nil {
			t.Fatal(err)
		}
	}
	if ops := p.PrivateOps() - before; ops != 10*limit {
		t.Fatalf("%d private operations, want %d (the hot digest re-signed)", ops, 10*limit)
	}
}

func TestMemoConcurrent(t *testing.T) {
	const workers, digests = 16, 24
	p := testPair(t, "memo-signer")
	m := newMemo(p, digests/3) // small enough that rotations race the lookups
	want := make([][]byte, digests)
	for i := range want {
		sig, err := p.SignDigest(digestOf(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sig
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * digests {
				i := (w + k) % digests // overlapping, in a different order per goroutine
				sig, err := m.signDigest(digestOf(i))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(sig, want[i]) {
					errs <- fmt.Errorf("goroutine %d: wrong signature for digest %d", w, i)
					return
				}
				sig[0] ^= 0xff // callers own their copy
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := m.size(); n > 2*(digests/3) {
		t.Fatalf("memo holds %d, want <= %d", n, 2*(digests/3))
	}
}
