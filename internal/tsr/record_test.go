package tsr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/store"
)

// The oracle: the hand-written encoders and decoders the record formats
// had before they moved onto store.Record, kept verbatim as the
// reference the new ones must match byte for byte.

func oracleWriteChunk(buf *bytes.Buffer, data []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(data)))
	buf.Write(n[:])
	buf.Write(data)
}

func oracleReadChunk(buf *bytes.Reader) ([]byte, error) {
	var n [8]byte
	if got, _ := buf.Read(n[:]); got < len(n) {
		err := io.ErrUnexpectedEOF
		if got == 0 {
			err = io.EOF
		}
		return nil, fmt.Errorf("store: chunk: %w", err)
	}
	size := binary.BigEndian.Uint64(n[:])
	if size > uint64(buf.Len()) {
		return nil, fmt.Errorf("store: chunk size %d exceeds remainder", size)
	}
	out := make([]byte, size)
	if _, err := io.ReadFull(buf, out); err != nil {
		return nil, fmt.Errorf("store: chunk: %w", err)
	}
	return out, nil
}

func oracleEncodeState(mc uint64, upstream []byte, localSig *index.Signed, seq uint64, registered []index.Entry) []byte {
	var buf bytes.Buffer
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], mc)
	buf.Write(n[:])
	binary.BigEndian.PutUint64(n[:], seq)
	buf.Write(n[:])
	oracleWriteChunk(&buf, upstream)
	oracleWriteChunk(&buf, localSig.Raw)
	oracleWriteChunk(&buf, []byte(localSig.KeyName))
	oracleWriteChunk(&buf, localSig.Sig)
	if len(registered) > 0 {
		reg := &index.Index{Origin: "registered"}
		for _, e := range registered {
			reg.Add(e)
		}
		oracleWriteChunk(&buf, reg.Encode())
	}
	return buf.Bytes()
}

func oracleDecodeState(blob []byte) (mc uint64, upstream []byte, localSig *index.Signed, seq uint64, registered []index.Entry, err error) {
	buf := bytes.NewReader(blob)
	var n [8]byte
	if _, err = buf.Read(n[:]); err != nil {
		return 0, nil, nil, 0, nil, err
	}
	mc = binary.BigEndian.Uint64(n[:])
	if _, err = buf.Read(n[:]); err != nil {
		return 0, nil, nil, 0, nil, err
	}
	seq = binary.BigEndian.Uint64(n[:])
	if upstream, err = oracleReadChunk(buf); err != nil {
		return 0, nil, nil, 0, nil, err
	}
	raw, err := oracleReadChunk(buf)
	if err != nil {
		return 0, nil, nil, 0, nil, err
	}
	keyName, err := oracleReadChunk(buf)
	if err != nil {
		return 0, nil, nil, 0, nil, err
	}
	sig, err := oracleReadChunk(buf)
	if err != nil {
		return 0, nil, nil, 0, nil, err
	}
	if buf.Len() > 0 {
		regRaw, rerr := oracleReadChunk(buf)
		if rerr != nil {
			return 0, nil, nil, 0, nil, rerr
		}
		reg, rerr := index.Decode(regRaw)
		if rerr != nil {
			return 0, nil, nil, 0, nil, rerr
		}
		registered = reg.Entries
	}
	return mc, upstream, &index.Signed{Raw: raw, KeyName: string(keyName), Sig: sig}, seq, registered, nil
}

func oracleEncodeMeta(id string, policyRaw, privPEM []byte) []byte {
	var buf bytes.Buffer
	oracleWriteChunk(&buf, []byte(id))
	oracleWriteChunk(&buf, policyRaw)
	oracleWriteChunk(&buf, privPEM)
	return buf.Bytes()
}

func oracleDecodeMeta(blob []byte) (id string, policyRaw, privPEM []byte, err error) {
	buf := bytes.NewReader(blob)
	rawID, err := oracleReadChunk(buf)
	if err != nil {
		return "", nil, nil, err
	}
	if policyRaw, err = oracleReadChunk(buf); err != nil {
		return "", nil, nil, err
	}
	if privPEM, err = oracleReadChunk(buf); err != nil {
		return "", nil, nil, err
	}
	return string(rawID), policyRaw, privPEM, nil
}

func oracleEncodeCacheEntry(e cacheEntry) []byte {
	var buf bytes.Buffer
	oracleWriteChunk(&buf, []byte(e.Key))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(e.Size))
	buf.Write(n[:])
	buf.Write(e.Hash[:])
	return buf.Bytes()
}

func oracleDecodeCacheEntry(blob []byte) (cacheEntry, error) {
	buf := bytes.NewReader(blob)
	rawKey, err := oracleReadChunk(buf)
	if err != nil {
		return cacheEntry{}, err
	}
	e := cacheEntry{Key: string(rawKey)}
	var n [8]byte
	if _, err := buf.Read(n[:]); err != nil {
		return cacheEntry{}, err
	}
	e.Size = int64(binary.BigEndian.Uint64(n[:]))
	if _, err := buf.Read(e.Hash[:]); err != nil {
		return cacheEntry{}, err
	}
	return e, nil
}

func oracleEncodeIngestPayload(id string, raws [][]byte) []byte {
	var buf bytes.Buffer
	oracleWriteChunk(&buf, []byte(id))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(raws)))
	buf.Write(n[:])
	for _, raw := range raws {
		oracleWriteChunk(&buf, raw)
	}
	return buf.Bytes()
}

func oracleDecodeIngestPayload(blob []byte) (id string, raws [][]byte, err error) {
	buf := bytes.NewReader(blob)
	rawID, err := oracleReadChunk(buf)
	if err != nil {
		return "", nil, err
	}
	var n [8]byte
	if _, err := buf.Read(n[:]); err != nil {
		return "", nil, err
	}
	count := binary.BigEndian.Uint64(n[:])
	if count > 1<<20 {
		return "", nil, fmt.Errorf("absurd package count %d", count)
	}
	raws = make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		raw, err := oracleReadChunk(buf)
		if err != nil {
			return "", nil, err
		}
		raws = append(raws, raw)
	}
	return string(rawID), raws, nil
}

func oracleEncodeIngestBody(raws [][]byte) []byte {
	var buf bytes.Buffer
	for _, raw := range raws {
		oracleWriteChunk(&buf, raw)
	}
	return buf.Bytes()
}

func oracleDecodeIngestBody(body []byte) ([][]byte, error) {
	buf := bytes.NewReader(body)
	var raws [][]byte
	for buf.Len() > 0 {
		raw, err := oracleReadChunk(buf)
		if err != nil {
			return nil, err
		}
		raws = append(raws, raw)
	}
	if len(raws) == 0 {
		return nil, errors.New("empty batch")
	}
	return raws, nil
}

func oracleEncodeManifestBlob(name string, m *store.ChunkManifest, gz bool) []byte {
	body := EncodeChunkManifest(name, m)
	var zipped []byte
	if gz {
		zipped = gzipped(body)
	}
	blob := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(body)+len(zipped)), uint64(len(body)))
	return append(append(blob, body...), zipped...)
}

func oracleSplitManifestBlob(blob []byte) (body, gz []byte, ok bool) {
	if len(blob) < 8 || binary.BigEndian.Uint64(blob) > uint64(len(blob)-8) {
		return nil, nil, false
	}
	n := 8 + binary.BigEndian.Uint64(blob)
	body, gz = blob[8:n], blob[n:]
	if len(gz) == 0 {
		gz = nil
	}
	return body, gz, true
}

// decoded is what a decoder returned: its values and whether it failed.
type decoded struct {
	vals []any
	err  bool
}

func result(err error, vals ...any) decoded { return decoded{vals: vals, err: err != nil} }

// TestRecordFormatsMatchOracle: for the six record formats of this
// package, with no chunks, an empty chunk and many chunks, registered
// entries absent and present, and a manifest blob with and without its
// gzip tail, the encoder's bytes equal the oracle's, and the oracle's
// bytes decode to the values the oracle decodes from them. Encoders
// that seal and store are checked by what they stored, unsealed, and
// decoders that unseal by sealing the oracle's bytes for them.
func TestRecordFormatsMatchOracle(t *testing.T) {
	w := newWorld(t, 1)
	r := w.deploy(t)
	seal := func(b []byte) []byte {
		sealed, err := w.svc.Seal(b)
		if err != nil {
			t.Fatal(err)
		}
		return sealed
	}
	unseal := func(sealed []byte, err error) []byte {
		if err == nil {
			sealed, err = w.svc.Unseal(sealed)
		}
		if err != nil {
			t.Fatal(err)
		}
		return sealed
	}
	signed, err := index.Sign(&index.Index{Origin: "oracle", Sequence: 7}, keys.Shared.MustGet("oracle-key"))
	if err != nil {
		t.Fatal(err)
	}
	upstream := (&index.Index{Origin: "alpine-main", Sequence: 3}).Encode()
	registered := []index.Entry{
		{Name: "a", Version: "1.0", Size: 10, Hash: [32]byte{1}},
		{Name: "b", Version: "2.0", Size: 20, Hash: [32]byte{2}, Depends: []string{"a"}},
	}
	many := make([][]byte, 100)
	for i := range many {
		many[i] = bytes.Repeat([]byte{byte(i)}, i)
	}
	manifest := store.BuildManifest(bytes.Repeat([]byte("chunk me "), 40<<10))
	entry := cacheEntry{Key: r.sanCacheKey([32]byte{3}, [32]byte{4}), Size: 1 << 40, Hash: [32]byte{5, 6}}
	storedEntry := func() []byte {
		if err := r.storeCacheEntry(entry); err != nil {
			t.Fatal(err)
		}
		return unseal(w.svc.cfg.Store.Get(entry.Key))
	}
	pem, err := r.signKey.MarshalPrivatePEM()
	if err != nil {
		t.Fatal(err)
	}
	storedMeta := func() []byte {
		if err := w.svc.persistMeta(r, w.policy); err != nil {
			t.Fatal(err)
		}
		return unseal(w.svc.cfg.Store.Get(MetaStoreKey(r.ID)))
	}
	// Empty and absent batches are the same batch.
	batch := func(raws [][]byte) [][]byte {
		if len(raws) == 0 {
			return nil
		}
		return raws
	}

	state := func(b []byte) decoded {
		mc, up, sig, seq, reg, err := decodeState(b)
		return result(err, mc, up, sig, seq, reg)
	}
	oracleState := func(b []byte) decoded {
		mc, up, sig, seq, reg, err := oracleDecodeState(b)
		return result(err, mc, up, sig, seq, reg)
	}
	meta := func(b []byte) decoded {
		id, pol, pem, err := decodeMeta(b)
		return result(err, id, pol, pem)
	}
	oracleMeta := func(b []byte) decoded {
		id, pol, pem, err := oracleDecodeMeta(b)
		return result(err, id, pol, pem)
	}
	cache := func(b []byte) decoded {
		if err := w.svc.cfg.Store.Put(entry.Key, seal(b)); err != nil {
			t.Fatal(err)
		}
		e, err := r.loadCacheEntry(entry.Key)
		return result(err, e)
	}
	oracleCache := func(b []byte) decoded {
		e, err := oracleDecodeCacheEntry(b)
		return result(err, e)
	}
	payload := func(b []byte) decoded {
		id, raws, err := decodeIngestPayload(w.svc, seal(b))
		return result(err, id, batch(raws))
	}
	oraclePayload := func(b []byte) decoded {
		id, raws, err := oracleDecodeIngestPayload(b)
		return result(err, id, batch(raws))
	}
	body := func(b []byte) decoded {
		raws, err := DecodeIngestBody(b)
		return result(err, raws)
	}
	oracleBody := func(b []byte) decoded {
		raws, err := oracleDecodeIngestBody(b)
		return result(err, raws)
	}
	manifestBlob := func(b []byte) decoded {
		body, gz, ok := splitManifestBlob(b)
		return decoded{vals: []any{body, gz}, err: !ok}
	}
	oracleManifestBlob := func(b []byte) decoded {
		body, gz, ok := oracleSplitManifestBlob(b)
		return decoded{vals: []any{body, gz}, err: !ok}
	}

	for _, tc := range []struct {
		name           string
		got, want      []byte
		decode, oracle func([]byte) decoded
	}{
		{"state/no registered", encodeState(9, upstream, signed, 7, nil), oracleEncodeState(9, upstream, signed, 7, nil), state, oracleState},
		{"state/registered", encodeState(9, upstream, signed, 7, registered), oracleEncodeState(9, upstream, signed, 7, registered), state, oracleState},
		{"state/empty chunks", encodeState(0, nil, &index.Signed{}, 0, nil), oracleEncodeState(0, nil, &index.Signed{}, 0, nil), state, oracleState},
		{"meta", storedMeta(), oracleEncodeMeta(r.ID, w.policy, pem), meta, oracleMeta},
		// persistMeta writes no empty id, so this row checks decoding only.
		{"meta/empty chunks", oracleEncodeMeta("", nil, nil), oracleEncodeMeta("", nil, nil), meta, oracleMeta},
		{"cache entry", storedEntry(), oracleEncodeCacheEntry(entry), cache, oracleCache},
		{"ingest payload/no chunks", unseal(r.sealIngestPayload(nil)), oracleEncodeIngestPayload(r.ID, nil), payload, oraclePayload},
		{"ingest payload/empty chunk", unseal(r.sealIngestPayload([][]byte{{}})), oracleEncodeIngestPayload(r.ID, [][]byte{{}}), payload, oraclePayload},
		{"ingest payload/many chunks", unseal(r.sealIngestPayload(many)), oracleEncodeIngestPayload(r.ID, many), payload, oraclePayload},
		{"ingest body/no chunks", EncodeIngestBody(nil), oracleEncodeIngestBody(nil), body, oracleBody},
		{"ingest body/empty chunk", EncodeIngestBody([][]byte{{}}), oracleEncodeIngestBody([][]byte{{}}), body, oracleBody},
		{"ingest body/many chunks", EncodeIngestBody(many), oracleEncodeIngestBody(many), body, oracleBody},
		{"manifest blob/gzip", EncodeManifestBlob("p", manifest, true), oracleEncodeManifestBlob("p", manifest, true), manifestBlob, oracleManifestBlob},
		{"manifest blob/no gzip", EncodeManifestBlob("p", manifest, false), oracleEncodeManifestBlob("p", manifest, false), manifestBlob, oracleManifestBlob},
		{"manifest blob/empty manifest", EncodeManifestBlob("", store.BuildManifest(nil), false), oracleEncodeManifestBlob("", store.BuildManifest(nil), false), manifestBlob, oracleManifestBlob},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !bytes.Equal(tc.got, tc.want) {
				t.Fatalf("encoder writes %d bytes unlike the oracle's %d", len(tc.got), len(tc.want))
			}
			if got, want := tc.decode(tc.want), tc.oracle(tc.want); !reflect.DeepEqual(got, want) {
				t.Fatalf("decodes to %+v, the oracle to %+v", got, want)
			}
		})
	}
}

// TestRecordTruncated: every read past a record's end is an error. The
// cache entry with its hash cut at 10 of 32 bytes and the ingest
// payload with its count cut at 3 bytes were accepted by the decoders
// that read fixed fields through bytes.Reader.Read, which reports a
// short read without an error.
func TestRecordTruncated(t *testing.T) {
	w := newWorld(t, 1)
	r := w.deploy(t)
	key := r.sanCacheKey([32]byte{1}, [32]byte{2})
	entry := oracleEncodeCacheEntry(cacheEntry{Key: key, Size: 5, Hash: [32]byte{9}})
	payload := oracleEncodeIngestPayload(r.ID, nil)
	seal := func(b []byte) []byte {
		sealed, err := w.svc.Seal(b)
		if err != nil {
			t.Fatal(err)
		}
		return sealed
	}
	signed := &index.Signed{Raw: []byte("raw"), KeyName: "k", Sig: []byte("sig")}
	state := oracleEncodeState(1, []byte("up"), signed, 2, nil)
	huge := binary.BigEndian.AppendUint64(nil, math.MaxUint64)
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"uint64 cut at 5 bytes", func() error {
			_, _, _, _, _, err := decodeState(state[:5])
			return err
		}},
		{"cache entry hash cut at 10 of 32 bytes", func() error {
			if err := w.svc.cfg.Store.Put(key, seal(entry[:len(entry)-32+10])); err != nil {
				t.Fatal(err)
			}
			_, err := r.loadCacheEntry(key)
			return err
		}},
		{"ingest payload count cut at 3 bytes", func() error {
			_, _, err := decodeIngestPayload(w.svc, seal(payload[:len(payload)-8+3]))
			return err
		}},
		{"chunk length past the remainder", func() error {
			_, _, _, err := decodeMeta(append(binary.BigEndian.AppendUint64(nil, 4), "abc"...))
			return err
		}},
		{"chunk length 2^64-1", func() error {
			_, _, _, _, _, err := decodeState(append(append(state[:16:16], huge...), "up"...))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.decode() == nil {
				t.Fatal("a truncated record was accepted")
			}
		})
	}
}
