package edge

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

// The oracle: the hand-written encoders and decoders of the edge's two
// record formats before they moved onto store.Record, kept verbatim as
// the reference the new ones must match byte for byte.

func oracleWriteChunk(buf *bytes.Buffer, data []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(data)))
	buf.Write(n[:])
	buf.Write(data)
}

func oracleReadChunk(buf *bytes.Reader) ([]byte, error) {
	var n [8]byte
	if got, _ := buf.Read(n[:]); got < len(n) {
		return nil, fmt.Errorf("store: chunk: %w", io.ErrUnexpectedEOF)
	}
	size := binary.BigEndian.Uint64(n[:])
	if size > uint64(buf.Len()) {
		return nil, fmt.Errorf("store: chunk size %d exceeds remainder", size)
	}
	out := make([]byte, size)
	if _, err := io.ReadFull(buf, out); err != nil {
		return nil, err
	}
	return out, nil
}

func oracleEncodeReplicaState(signed *index.Signed) []byte {
	var buf bytes.Buffer
	oracleWriteChunk(&buf, []byte(signed.KeyName))
	oracleWriteChunk(&buf, signed.Sig)
	oracleWriteChunk(&buf, signed.Raw)
	return buf.Bytes()
}

func oracleDecodeReplicaState(raw []byte) (*index.Signed, error) {
	buf := bytes.NewReader(raw)
	var chunks [][]byte
	for i := 0; i < 3; i++ {
		chunk, err := oracleReadChunk(buf)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, chunk)
	}
	return &index.Signed{KeyName: string(chunks[0]), Sig: chunks[1], Raw: chunks[2]}, nil
}

func oracleBaseRecord(entry index.Entry) []byte {
	rec := append(make([]byte, 0, 40), entry.Hash[:]...)
	return binary.BigEndian.AppendUint64(rec, uint64(entry.Size))
}

func oracleDecodeBaseRecord(rec []byte) (entry index.Entry, ok bool) {
	if len(rec) != 40 {
		return entry, false
	}
	return index.Entry{Hash: [32]byte(rec), Size: int64(binary.BigEndian.Uint64(rec[32:]))}, true
}

// TestRecordFormatsMatchOracle: for the edge's two record formats, with
// empty and full chunks and a base record of every length around its
// 40 bytes, the encoder's bytes equal the oracle's, and the oracle's
// bytes decode to the values the oracle decodes from them.
func TestRecordFormatsMatchOracle(t *testing.T) {
	signed, err := index.Sign(&index.Index{Origin: "oracle", Sequence: 7}, keys.Shared.MustGet("edge-oracle"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*index.Signed{signed, {}} {
		got, want := encodeReplicaState(s), oracleEncodeReplicaState(s)
		if !bytes.Equal(got, want) {
			t.Fatalf("replica state: encoder writes %d bytes unlike the oracle's %d", len(got), len(want))
		}
		dec, err := decodeReplicaState(want)
		odec, oerr := oracleDecodeReplicaState(want)
		if err != nil || oerr != nil || !reflect.DeepEqual(dec, odec) {
			t.Fatalf("replica state decodes to %+v (%v), the oracle to %+v (%v)", dec, err, odec, oerr)
		}
	}
	entry := index.Entry{Hash: [32]byte{1, 2, 3}, Size: 1<<40 + 7}
	rec := baseRecord(entry)
	if !bytes.Equal(rec, oracleBaseRecord(entry)) {
		t.Fatal("base record: encoder unlike the oracle")
	}
	long := append(append([]byte(nil), rec...), 0)
	for n := range len(long) + 1 {
		b := long[:n]
		got, ok := decodeBaseRecord(b)
		want, wantOK := oracleDecodeBaseRecord(b)
		if ok != wantOK || got.Hash != want.Hash || got.Size != want.Size {
			t.Fatalf("base record of %d bytes decodes to %v %v, the oracle to %v %v", len(b), got, ok, want, wantOK)
		}
	}
}

// FuzzDecodeManifestBlob asserts the contract of the two records a tier
// reads back from its untrusted store beside a package's bytes, the
// chunk-manifest blob and the base record, on arbitrary bytes: no
// panic; decoding allocates at most the input's size plus 64 KiB,
// beyond what DecodeChunkManifest spends on the manifest's body
// (FuzzDecodeChunkManifest bounds that at 256 times its size); and
// every accepted input re-encodes to the same bytes: a base record
// exactly, a manifest blob up to its gzip tail whenever its body is the
// canonical encoding, and otherwise to a blob whose decoding is a fixed
// point.
func FuzzDecodeManifestBlob(f *testing.F) {
	m := store.BuildManifest(bytes.Repeat([]byte("chunk me "), 20<<10))
	blob := tsr.EncodeManifestBlob("p", m, true)
	rec := baseRecord(index.Entry{Hash: m.PackageHash, Size: m.TotalSize})
	f.Add(blob)
	f.Add(tsr.EncodeManifestBlob("p", m, false))
	f.Add(rec)
	f.Add(blob[:5])                                                            // a truncated uint64
	f.Add(rec[:10])                                                            // a hash cut at 10 of 32 bytes
	f.Add(tsr.EncodeManifestBlob("p", m, false)[:100])                         // a chunk length past the remainder
	f.Add(append(binary.BigEndian.AppendUint64(nil, math.MaxUint64), "{}"...)) // a chunk length of 2^64-1
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := store.NewRecord(raw)
		body := r.Chunk()
		var before, mid, after runtime.MemStats
		runtime.ReadMemStats(&before)
		entry, isRecord := decodeBaseRecord(raw)
		runtime.ReadMemStats(&mid)
		name, m, err := tsr.DecodeManifestBlob(raw)
		runtime.ReadMemStats(&after)
		if n := mid.TotalAlloc - before.TotalAlloc; n > uint64(len(raw))+64<<10 {
			t.Fatalf("decodeBaseRecord allocated %d bytes for %d input bytes", n, len(raw))
		}
		if n := after.TotalAlloc - mid.TotalAlloc; n > uint64(len(raw))+256*uint64(len(body))+64<<10 {
			t.Fatalf("DecodeManifestBlob allocated %d bytes for %d input bytes", n, len(raw))
		}
		if isRecord && !bytes.Equal(baseRecord(entry), raw) {
			t.Fatal("an accepted base record does not re-encode to the same bytes")
		}
		if err != nil {
			return
		}
		frame := tsr.EncodeManifestBlob(name, m, false)
		canonical := bytes.Equal(tsr.EncodeChunkManifest(name, m), body)
		if canonical != bytes.HasPrefix(raw, frame) {
			t.Fatal("an accepted manifest blob with a canonical body does not re-encode to the same bytes")
		}
		enc := tsr.EncodeManifestBlob(name, m, true)
		name2, m2, err := tsr.DecodeManifestBlob(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest blob does not decode: %v", err)
		}
		if !bytes.Equal(tsr.EncodeManifestBlob(name2, m2, true), enc) {
			t.Fatal("manifest blob encoding is not a fixed point")
		}
	})
}
