package store

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Length-prefixed chunk framing (8-byte big-endian length + payload),
// with big-endian uint64 and fixed-size fields beside it, is the one
// record format of every persisted composite blob: the sealed
// checkpoint, metadata, sanitization-cache entries and ingest batches
// (internal/tsr), the ingest HTTP body, the stored chunk-manifest
// blob, and the edge's index journal and base records. Encoders append
// fields with AppendUint64 and AppendChunk and decoders read them back
// through one Record, so framing and bounds checks live here once.

// AppendUint64 appends v to dst as 8 big-endian bytes.
func AppendUint64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendChunk appends data to dst as one length-prefixed chunk.
func AppendChunk(dst, data []byte) []byte {
	return append(AppendUint64(dst, uint64(len(data))), data...)
}

// Record reads a record's fields in the order they were appended.
// Every length is checked against the bytes left, without a sum that
// could wrap, and the first read past the end sticks: it and every
// later read return zero values, and Err reports it. Returned slices
// alias the record, with their capacity cut at their end, so a decoder
// that keeps them past its input's life copies them.
type Record struct {
	b   []byte
	err error
}

// NewRecord returns a Record over b.
func NewRecord(b []byte) Record { return Record{b: b} }

func (r *Record) take(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = fmt.Errorf("store: record: field of %d bytes past the %d left: %w", n, len(r.b), io.ErrUnexpectedEOF)
		r.b = nil
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Uint64 reads one big-endian uint64.
func (r *Record) Uint64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bytes reads a field of exactly n bytes; a negative n is past any end.
func (r *Record) Bytes(n int) []byte { return r.take(uint64(n)) }

// Chunk reads one length-prefixed chunk.
func (r *Record) Chunk() []byte { return r.take(r.Uint64()) }

// Rest reads every byte left.
func (r *Record) Rest() []byte { return r.take(uint64(len(r.b))) }

// Len returns how many bytes are left to read.
func (r *Record) Len() int { return len(r.b) }

// Err returns the first read's error, or nil.
func (r *Record) Err() error { return r.err }
