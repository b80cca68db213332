package index

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"runtime"
	"testing"

	"tsr/internal/keys"
)

// fuzzSeedDelta builds one valid (encoded delta, encoded base index)
// pair so the fuzzer starts from the success path of Apply, not just
// the reject paths.
func fuzzSeedDelta(tb testing.TB) (deltaRaw, baseRaw []byte) {
	tb.Helper()
	pair := keys.Shared.MustGet("index-fuzz-origin")
	entry := func(name, version string, body []byte) Entry {
		return Entry{Name: name, Version: version, Size: int64(len(body)), Hash: sha256.Sum256(body)}
	}
	base := &Index{Origin: "fuzz", Sequence: 7, Entries: []Entry{
		entry("alpha", "1.0", []byte("alpha-body")),
		entry("beta", "2.1", []byte("beta-body")),
	}}
	baseSigned, err := Sign(base, pair)
	if err != nil {
		tb.Fatal(err)
	}
	next := base.Clone()
	next.Add(entry("gamma", "0.9", []byte("gamma-body")))
	next.Remove("beta")
	next.Sequence = 8
	nextSigned, err := Sign(next, pair)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := ComputeDelta(baseSigned.ETag(), base, nextSigned, next)
	if err != nil {
		tb.Fatal(err)
	}
	return d.Encode(), base.Encode()
}

// FuzzDeltaApply asserts the delta codec's safety contract on
// arbitrary bytes: decoding either fails with ErrFormat or yields a
// delta whose canonical encoding is a fixed point, and Apply either
// reproduces the advertised signed index byte-for-byte (ETag match,
// sequence match, decodable raw) or returns ErrDeltaMismatch — never
// a panic, never a silently wrong index.
func FuzzDeltaApply(f *testing.F) {
	deltaRaw, baseRaw := fuzzSeedDelta(f)
	f.Add(deltaRaw, baseRaw)
	f.Add([]byte("from = a\nto = b\nsequence = 1\nsignature = \n"), baseRaw)
	f.Add([]byte("from = a\nto = b\nsequence = 1\nsignature = AA==\nupsert = x 1.0 3 "+
		"0000000000000000000000000000000000000000000000000000000000000000 -\nremove = y\n"), baseRaw)
	f.Add(deltaRaw, []byte("origin = fuzz\nsequence = 7\n"))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, deltaBytes, baseBytes []byte) {
		d, err := DecodeDelta(deltaBytes)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("DecodeDelta error is not ErrFormat: %v", err)
			}
			return
		}
		// The canonical encoding is a fixed point.
		enc := d.Encode()
		d2, err := DecodeDelta(enc)
		if err != nil {
			t.Fatalf("canonical delta encoding does not re-decode: %v\n%s", err, enc)
		}
		if !bytes.Equal(d2.Encode(), enc) {
			t.Fatalf("delta encoding is not a fixed point:\n%s\nvs\n%s", enc, d2.Encode())
		}

		base, err := Decode(baseBytes)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Decode error is not ErrFormat: %v", err)
			}
			return
		}

		signed, next, err := d.Apply(base)
		if err != nil {
			if !errors.Is(err, ErrDeltaMismatch) {
				t.Fatalf("Apply error is not ErrDeltaMismatch: %v", err)
			}
			return
		}
		// Success means byte-exact reconstruction of the advertised
		// generation.
		if got := signed.ETag(); got != d.ToETag {
			t.Fatalf("Apply succeeded with ETag %s != advertised %s", got, d.ToETag)
		}
		if next.Sequence != d.Sequence {
			t.Fatalf("Apply sequence %d != delta sequence %d", next.Sequence, d.Sequence)
		}
		redecoded, err := Decode(signed.Raw)
		if err != nil {
			t.Fatalf("Apply produced undecodable raw: %v", err)
		}
		if !bytes.Equal(redecoded.Encode(), signed.Raw) {
			t.Fatal("Apply raw is not the canonical encoding of its own decode")
		}
	})
}

// FuzzIndexDecode asserts the index decoder's contract on arbitrary
// bytes, which an edge (or anything between it and a client) can feed
// a consumer before the signature is checked: no panic, every error is
// ErrFormat, a decoded index re-encodes to a fixed point, and the
// memory decoding costs is bounded by the input's length, never by a
// length the input claims (TestDecodeDistrustsSizeTrailer's contract).
func FuzzIndexDecode(f *testing.F) {
	for _, src := range decodeErrorCases {
		f.Add([]byte(src))
	}
	f.Add(sampleIndex().Encode())
	f.Add([]byte("origin = x\nsequence = 18446744073709551615\npackage = a 1.0 9223372036854775807 " +
		"0000000000000000000000000000000000000000000000000000000000000000 -\n"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := Decode(raw)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(raw))+64<<10 {
			t.Fatalf("Decode allocated %d bytes for %d input bytes", n, len(raw))
		}
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Decode error is not ErrFormat: %v", err)
			}
			return
		}
		enc := ix.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not re-decode: %v\n%s", err, enc)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("index encoding is not a fixed point:\n%s\nvs\n%s", enc, again.Encode())
		}
	})
}
