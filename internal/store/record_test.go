package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

func TestChunkFramingRoundtrip(t *testing.T) {
	b := AppendChunk(nil, []byte("alpha"))
	b = AppendChunk(b, nil)
	b = AppendUint64(b, 42)
	b = AppendChunk(b, []byte("bravo charlie"))
	rec := NewRecord(b)
	if got := rec.Chunk(); string(got) != "alpha" || cap(got) != len(got) {
		t.Fatalf("chunk 0: %q (cap %d)", got, cap(got))
	}
	if got := rec.Chunk(); got == nil || len(got) != 0 {
		t.Fatalf("chunk 1: %q, want an empty chunk", got)
	}
	if got := rec.Uint64(); got != 42 {
		t.Fatalf("uint64: %d", got)
	}
	if got := rec.Chunk(); string(got) != "bravo charlie" {
		t.Fatalf("chunk 2: %q", got)
	}
	if rec.Len() != 0 || rec.Err() != nil {
		t.Fatalf("%d bytes left, err %v", rec.Len(), rec.Err())
	}
	if rec.Chunk(); rec.Err() == nil {
		t.Fatal("read past end: want error")
	}
}

// Regression: a frame truncated mid-header or mid-payload must fail
// loudly. The old bytes.Reader.Read-based decoder could short-read a
// partial header without error and misparse the remainder.
func TestReadChunkTruncatedFrame(t *testing.T) {
	whole := AppendChunk(nil, bytes.Repeat([]byte("x"), 100))
	for _, cut := range []int{0, 1, 7, 8, 9, len(whole) - 1} {
		rec := NewRecord(whole[:cut])
		if got := rec.Chunk(); rec.Err() == nil || got != nil {
			t.Fatalf("cut=%d: want error, got %d bytes", cut, len(got))
		}
		if !errors.Is(rec.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: want io.ErrUnexpectedEOF in %v", cut, rec.Err())
		}
	}
}

// TestRecordErrorSticks: after the first read past the end, every read
// returns zero values, even one that would fit what was left.
func TestRecordErrorSticks(t *testing.T) {
	huge := AppendUint64(nil, math.MaxUint64)
	for _, tc := range []struct {
		name string
		b    []byte
		read func(*Record)
	}{
		{"uint64 cut at 5 bytes", []byte{1, 2, 3, 4, 5}, func(r *Record) { r.Uint64() }},
		{"field longer than the rest", []byte("short"), func(r *Record) { r.Bytes(6) }},
		{"negative field", []byte("short"), func(r *Record) { r.Bytes(-1) }},
		{"chunk length past the rest", append(AppendUint64(nil, 6), "short"...), func(r *Record) { r.Chunk() }},
		{"chunk length 2^64-1", append(huge, "short"...), func(r *Record) { r.Chunk() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewRecord(tc.b)
			tc.read(&rec)
			if rec.Err() == nil {
				t.Fatal("want an error")
			}
			if rec.Len() != 0 || rec.Uint64() != 0 || rec.Bytes(0) != nil || rec.Chunk() != nil || rec.Rest() != nil {
				t.Fatal("a read after the error returned bytes")
			}
		})
	}
}
