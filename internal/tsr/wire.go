package tsr

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"tsr/internal/index"
	"tsr/internal/store"
)

// Wire-efficiency helpers shared by the origin and edge HTTP tiers:
// negotiated gzip for the (canonically signed) index text,
// single-range 206 serving over verified bytes, the chunk manifest wire
// codec, and the hash-as-you-copy reader the streaming serve path uses.
// Nothing here changes what is signed: gzip wraps the canonical text
// after signing, ranges slice verified bytes, and chunk manifests are
// untrusted metadata rooted in the signed entry hash.

// AcceptsGzip reports whether the request's Accept-Encoding admits
// gzip (RFC 9110 §12.5.3): a gzip listing, or failing one a *, with a
// nonzero weight. An explicit gzip refusal (gzip;q=0) wins over any
// other listing, the wildcard included.
func AcceptsGzip(r *http.Request) bool {
	accept := false
	for rest := r.Header.Get("Accept-Encoding"); rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		coding, params, _ := strings.Cut(part, ";")
		coding = strings.TrimSpace(coding)
		isGzip := strings.EqualFold(coding, "gzip")
		if !isGzip && coding != "*" {
			continue
		}
		if nonzeroWeight(params) {
			accept = true
		} else if isGzip {
			return false
		}
	}
	return accept
}

// nonzeroWeight reports whether an Accept-Encoding member's parameters
// leave it acceptable: no q parameter, or a q (any case) whose value is
// not zero — "0", "0.0" and "0.000" all are (RFC 9110 §12.4.2). A
// malformed weight is read leniently, as no weight at all.
func nonzeroWeight(params string) bool {
	for params != "" {
		var param string
		param, params, _ = strings.Cut(params, ";")
		name, value, ok := strings.Cut(param, "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(name), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		return err != nil || q > 0
	}
	return true
}

// gzippers keeps up to GOMAXPROCS idle gzip writers across requests,
// and spareGzippers, a sync.Pool, any further ones; compression level
// is fixed, so they are interchangeable after Reset. The bounded list
// outlives collections, which empty a pool: as apk's deflaters, where
// the sizes are argued.
var (
	gzippers      = make(chan *gzip.Writer, runtime.GOMAXPROCS(0))
	spareGzippers = sync.Pool{New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzip.DefaultCompression)
		return zw
	}}
)

// gzipped returns body compressed at the fixed gzip level, or nil when
// that does not make it smaller — the body is then always sent as is.
func gzipped(body []byte) []byte {
	var zw *gzip.Writer
	select {
	case zw = <-gzippers:
	default:
		zw = spareGzippers.Get().(*gzip.Writer)
	}
	var buf bytes.Buffer
	zw.Reset(&buf)
	_, werr := zw.Write(body)
	cerr := zw.Close()
	select {
	case gzippers <- zw:
	default:
		spareGzippers.Put(zw)
	}
	if werr != nil || cerr != nil || buf.Len() >= len(body) {
		return nil
	}
	return buf.Bytes()
}

// WriteNegotiated writes body either identity or gzip-compressed
// according to the request's Accept-Encoding, with correct
// Content-Length and Vary headers. The body bytes passed in stay the
// canonical representation (ETags and signatures are computed over
// them); gzip is pure transfer encoding-after-the-fact.
func WriteNegotiated(w http.ResponseWriter, r *http.Request, body []byte) {
	var gz []byte
	if AcceptsGzip(r) {
		gz = gzipped(body)
	}
	writeEncoded(w, r, body, gz)
}

// writeEncoded is WriteNegotiated for a body whose gzip'd form gz (nil
// when gzip does not shrink it) is already built: gz goes out when the
// request accepts gzip, body otherwise.
func writeEncoded(w http.ResponseWriter, r *http.Request, body, gz []byte) {
	w.Header().Add("Vary", "Accept-Encoding")
	if gz != nil && AcceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		body = gz
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// wireMemo is one published generation's wire forms, each built once,
// by the first request that needs it, and then served to every request
// on that generation as the same bytes: the index route sends no clone
// and compresses nothing per request, the delta route diffs nothing.
// Its fields are written only by its fill functions (snapfreeze).
type wireMemo struct {
	indexOnce sync.Once
	signature string // the X-Tsr-Signature value: base64 of Signed.Sig
	indexGz   []byte // Signed.Raw gzip'd; nil when gzip does not shrink it
	// deltas[i] is the delta from History[i]. Slots exist only for
	// retained bases, so no stream of since= values can grow the memo.
	deltas [index.HistoryWindow]deltaWire
}

// deltaWire is the encoded delta from one retained base to its
// generation, and the encoding gzip'd (nil when that does not shrink).
type deltaWire struct {
	once    sync.Once
	raw, gz []byte
	err     error
}

// indexWire returns p's memo with the index forms filled.
func (p *Published) indexWire() *wireMemo {
	m := p.wire
	m.indexOnce.Do(func() { m.fillIndex(p.Signed) })
	return m
}

func (m *wireMemo) fillIndex(signed *index.Signed) {
	m.signature = base64.StdEncoding.EncodeToString(signed.Sig)
	m.indexGz = gzipped(signed.Raw)
}

// deltaWire is the wire form of Delta(since). An unknown base is
// refused before any memo slot is touched.
func (p *Published) deltaWire(since string) (*deltaWire, error) {
	i, err := p.base(since)
	if err != nil {
		return nil, err
	}
	d := &p.wire.deltas[i]
	d.once.Do(func() { d.fill(p.Delta(since)) })
	return d, d.err
}

func (d *deltaWire) fill(delta *index.Delta, err error) {
	if err != nil {
		d.err = err
		return
	}
	d.raw = delta.Encode()
	d.gz = gzipped(d.raw)
}

// ParseRange parses a single-range `bytes=` Range header against a
// representation of the given size. ok=false means the header should
// be ignored (absent, non-bytes unit, multi-range, or syntactically
// invalid — RFC 9110 lets a server serve 200 for all of these). A
// syntactically valid but unsatisfiable range returns ErrUnsatisfiable
// and the caller answers 416.
func ParseRange(header string, size int64) (off, length int64, ok bool, err error) {
	spec, found := strings.CutPrefix(strings.TrimSpace(header), "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false, nil
	}
	first, last, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return 0, 0, false, nil
	}
	if first == "" {
		// suffix-length form: bytes=-N, the final N bytes.
		n, perr := strconv.ParseInt(last, 10, 64)
		if perr != nil || n < 0 {
			return 0, 0, false, nil
		}
		if n == 0 || size == 0 {
			return 0, 0, false, ErrUnsatisfiable
		}
		if n > size {
			n = size
		}
		return size - n, n, true, nil
	}
	start, perr := strconv.ParseInt(first, 10, 64)
	if perr != nil || start < 0 {
		return 0, 0, false, nil
	}
	end := size - 1
	if last != "" {
		end, perr = strconv.ParseInt(last, 10, 64)
		if perr != nil || end < start {
			return 0, 0, false, nil
		}
	}
	if start >= size {
		return 0, 0, false, ErrUnsatisfiable
	}
	if end > size-1 {
		end = size - 1
	}
	return start, end - start + 1, true, nil
}

// ErrUnsatisfiable marks a syntactically valid Range that selects no
// bytes of the representation (416 Range Not Satisfiable).
var ErrUnsatisfiable = fmt.Errorf("tsr: range not satisfiable")

// ServeRange answers a Range request over already-verified bytes:
// 206 with Content-Range for a satisfiable single range, 416 for an
// unsatisfiable one, and false (caller serves the full body) when the
// header is absent/ignorable or an If-Range condition fails. The ETag
// on a 206 is the FULL representation's strong tag — the content hash
// from the signed index — exactly as RFC 9110 requires; a client
// reassembling ranges still verifies against the signed entry.
func ServeRange(w http.ResponseWriter, r *http.Request, etag string, raw []byte) bool {
	rng := r.Header.Get("Range")
	if rng == "" {
		return false
	}
	// If-Range: serve the full current body when the validator no
	// longer matches, instead of splicing ranges across generations.
	if ir := strings.TrimSpace(r.Header.Get("If-Range")); ir != "" && ir != etag {
		return false
	}
	off, length, ok, err := ParseRange(rng, int64(len(raw)))
	if err != nil {
		w.Header().Set("Content-Range", "bytes */"+strconv.Itoa(len(raw)))
		// RFC 9110 §14.2: an unsatisfiable range is answered with a bare
		// 416 carrying the Content-Range above — there is no error value
		// to route through statusFor, and a JSON error body would hide
		// the required header semantics.
		//lint:allow statusroute protocol-mandated 416 with Content-Range, not a routed error
		w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
		return true
	}
	if !ok {
		return false
	}
	w.Header().Set("Content-Range",
		fmt.Sprintf("bytes %d-%d/%d", off, off+length-1, len(raw)))
	w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	w.WriteHeader(http.StatusPartialContent)
	w.Write(raw[off : off+length])
	return true
}

// NewVerifiedReader wraps a stream in hash-as-you-copy verification
// against the signed entry hash: bytes are released to the consumer
// with one block held back, and the final block is released only after
// the complete stream hashed to want. A mismatch surfaces as
// ErrCacheTampered BEFORE the consumer has received the full body, so
// an HTTP handler copying from this reader aborts the response (the
// client sees a truncated transfer, never a complete-but-wrong one).
// onFail, if non-nil, runs once on mismatch — the serving tier uses it
// to drop the tampered cache entry so the next request heals.
func NewVerifiedReader(src io.ReadCloser, want [sha256.Size]byte, onFail func()) io.ReadCloser {
	return &verifiedReader{src: src, want: want, onFail: onFail, h: sha256.New()}
}

// verifiedBlock is the read size of a verifiedReader. At most two
// blocks are live (the one being released and the one held back), so
// each reader holds two and alternates them.
const verifiedBlock = 32 << 10

// verifiedBlocks pools both read blocks of a verifiedReader as one
// array: a reader takes one on its first read and Close returns it.
var verifiedBlocks = sync.Pool{New: func() any { return new([2 * verifiedBlock]byte) }}

// errVerifiedClosed is what a verifiedReader returns once closed: its
// blocks may already serve another reader.
var errVerifiedClosed = errors.New("tsr: read from a closed verified reader")

type verifiedReader struct {
	src     io.ReadCloser
	want    [sha256.Size]byte
	onFail  func()
	h       hash.Hash
	blocks  *[2 * verifiedBlock]byte // from verifiedBlocks on first use
	next    int                      // index of the block the next advance reads into
	ready   []byte                   // verified-for-release bytes
	pending []byte                   // read and hashed, held until the next block or EOF verdict
	fin     bool
	err     error
}

func (v *verifiedReader) Read(p []byte) (int, error) {
	if err := v.fill(); err != nil {
		return 0, err
	}
	n := copy(p, v.ready)
	v.ready = v.ready[n:]
	return n, nil
}

// WriteTo streams the verified bytes to w straight from the reader's
// own blocks, so io.Copy needs no buffer of its own.
func (v *verifiedReader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		if err := v.fill(); err == io.EOF {
			return total, nil
		} else if err != nil {
			return total, err
		}
		n, err := w.Write(v.ready)
		total += int64(n)
		v.ready = v.ready[n:]
		if err != nil {
			return total, err
		}
	}
}

// fill advances until verified bytes are ready to release, or returns
// io.EOF at the verified end of the stream or the error that ended it.
func (v *verifiedReader) fill() error {
	for len(v.ready) == 0 {
		if v.err != nil {
			return v.err
		}
		if v.fin {
			return io.EOF
		}
		v.advance()
	}
	return nil
}

// advance reads one block, releasing the previously pending block —
// or, at EOF, verifies the whole-stream hash before releasing the last
// one. It runs only once ready is drained, so the block it reads into
// is never one a caller is still being handed.
func (v *verifiedReader) advance() {
	if v.blocks == nil {
		v.blocks = verifiedBlocks.Get().(*[2 * verifiedBlock]byte)
	}
	block := v.blocks[v.next*verifiedBlock : (v.next+1)*verifiedBlock]
	n, err := v.src.Read(block)
	if n > 0 {
		v.h.Write(block[:n])
		v.ready = v.pending
		v.pending = block[:n]
		v.next ^= 1
		return
	}
	switch err {
	case nil:
		// Zero-byte read without error: try again on the next loop.
	case io.EOF:
		var sum [sha256.Size]byte
		v.h.Sum(sum[:0])
		if sum != v.want {
			v.pending = nil
			v.err = fmt.Errorf("%w: streamed bytes do not match the signed index entry", ErrCacheTampered)
			if v.onFail != nil {
				v.onFail()
				v.onFail = nil
			}
			return
		}
		v.ready = v.pending
		v.pending = nil
		v.fin = true
	default:
		v.pending = nil
		v.err = err
	}
}

// Close closes the source and returns the reader's blocks to the pool.
// It is idempotent; a read after it fails.
func (v *verifiedReader) Close() error {
	if v.err == errVerifiedClosed {
		return nil
	}
	v.ready, v.pending = nil, nil
	v.err = errVerifiedClosed
	if v.blocks != nil {
		verifiedBlocks.Put(v.blocks)
		v.blocks = nil
	}
	return v.src.Close()
}

// wireManifest is the JSON wire form of a chunk manifest.
type wireManifest struct {
	Package string      `json:"package"`
	Hash    string      `json:"hash"`
	Size    int64       `json:"size"`
	Chunks  []wireChunk `json:"chunks"`
}

type wireChunk struct {
	Offset int64  `json:"offset"`
	Size   int64  `json:"size"`
	Hash   string `json:"hash"`
}

// EncodeChunkManifest renders a manifest for the wire.
func EncodeChunkManifest(name string, m *store.ChunkManifest) []byte {
	doc := wireManifest{
		Package: name,
		Hash:    hex.EncodeToString(m.PackageHash[:]),
		Size:    m.TotalSize,
		Chunks:  make([]wireChunk, len(m.Chunks)),
	}
	for i, c := range m.Chunks {
		doc.Chunks[i] = wireChunk{Offset: c.Offset, Size: c.Size, Hash: hex.EncodeToString(c.Hash[:])}
	}
	out, _ := json.Marshal(doc)
	return out
}

// DecodeChunkManifest parses a wire manifest and checks its internal
// shape (contiguous coverage, bounded chunk sizes). The result is
// still UNTRUSTED until its PackageHash is compared to the signed
// entry and the reassembled bytes hash to it.
func DecodeChunkManifest(raw []byte) (string, *store.ChunkManifest, error) {
	var doc wireManifest
	if err := json.Unmarshal(raw, &doc); err != nil {
		return "", nil, fmt.Errorf("tsr: chunk manifest: %w", err)
	}
	m := &store.ChunkManifest{TotalSize: doc.Size, Chunks: make([]store.ManifestChunk, len(doc.Chunks))}
	if err := decodeHash32(doc.Hash, &m.PackageHash); err != nil {
		return "", nil, err
	}
	for i, c := range doc.Chunks {
		m.Chunks[i] = store.ManifestChunk{Span: store.Span{Offset: c.Offset, Size: c.Size}}
		if err := decodeHash32(c.Hash, &m.Chunks[i].Hash); err != nil {
			return "", nil, err
		}
	}
	if err := m.Valid(); err != nil {
		return "", nil, err
	}
	return doc.Package, m, nil
}

// EncodeManifestBlob frames a manifest for the store: the length of its
// wire body (EncodeChunkManifest), the body, then, when gz is set, the
// body's gzip (none when gzip does not shrink it), so a tier that serves
// /chunks answers either encoding by slicing the stored blob. A client,
// which never serves /chunks, stores the body alone.
func EncodeManifestBlob(name string, m *store.ChunkManifest, gz bool) []byte {
	body := EncodeChunkManifest(name, m)
	var zipped []byte
	if gz {
		zipped = gzipped(body)
	}
	blob := store.AppendChunk(make([]byte, 0, 8+len(body)+len(zipped)), body)
	return append(blob, zipped...)
}

// DecodeManifestBlob is DecodeChunkManifest of a stored blob's body:
// as UNTRUSTED as a wire manifest.
func DecodeManifestBlob(blob []byte) (string, *store.ChunkManifest, error) {
	body, _, ok := splitManifestBlob(blob)
	if !ok {
		return "", nil, errors.New("tsr: stored chunk manifest: bad framing")
	}
	return DecodeChunkManifest(body)
}

// splitManifestBlob slices a stored manifest blob into its wire body
// and gzip (nil when none was stored), without copying.
func splitManifestBlob(blob []byte) (body, gz []byte, ok bool) {
	rec := store.NewRecord(blob)
	body, gz = rec.Chunk(), rec.Rest()
	if len(gz) == 0 {
		gz = nil
	}
	return body, gz, rec.Err() == nil
}

// rootedIn reports whether a manifest body, as EncodeChunkManifest
// renders it, names entry's hash and size, without decoding it (so
// without allocating). JSON escapes every quote in the package name,
// so only the hash field can match.
func rootedIn(body []byte, entry index.Entry) bool {
	var buf [128]byte
	want := append(buf[:0], `,"hash":"`...)
	want = hex.AppendEncode(want, entry.Hash[:])
	want = append(want, `","size":`...)
	want = strconv.AppendInt(want, entry.Size, 10)
	want = append(want, `,"chunks":`...)
	return bytes.Contains(body, want)
}

// ReassembleStats reports what a ReassembleChunks call transferred
// versus reused.
type ReassembleStats struct {
	ChunksReused, ChunksFetched int64
	BytesReused, BytesFetched   int64
}

// ReassembleChunks rebuilds the package described by manifest m from
// reusable chunks of old (matched by per-chunk hash) plus byte ranges
// obtained via fetchRange; runs of consecutive missing chunks are
// coalesced into single range fetches, and every fetched chunk must
// hash to its manifest entry. oldM is old's manifest when the caller
// holds one, so old need not be cut and hashed again; nil, or one that
// does not tile exactly len(old) bytes, re-cuts old.
//
// m, old and oldM are UNTRUSTED inputs: the caller MUST verify the
// returned bytes against the signed index entry before serving or
// caching them. Once it has, every chunk of m is known to describe
// them — a fetched chunk was hashed, and a reused one copied from old
// under the same hash — so m may then be stored as their manifest. A
// wrong oldM can make the output fail that check, never pass it with
// wrong bytes.
func ReassembleChunks(m *store.ChunkManifest, old []byte, oldM *store.ChunkManifest, fetchRange func(off, length int64) ([]byte, error)) ([]byte, ReassembleStats, error) {
	var st ReassembleStats
	if err := m.Valid(); err != nil {
		return nil, st, err
	}
	oldChunks := baseChunks(old, oldM)
	reusable := func(ch store.ManifestChunk) ([]byte, bool) {
		b, ok := oldChunks[ch.Hash]
		return b, ok && int64(len(b)) == ch.Size
	}
	out := make([]byte, m.TotalSize)
	for i := 0; i < len(m.Chunks); {
		ch := m.Chunks[i]
		if b, ok := reusable(ch); ok {
			copy(out[ch.Offset:], b)
			st.ChunksReused++
			st.BytesReused += ch.Size
			i++
			continue
		}
		j := i
		for j < len(m.Chunks) {
			if _, ok := reusable(m.Chunks[j]); ok {
				break
			}
			j++
		}
		runOff := ch.Offset
		runEnd := m.Chunks[j-1].Offset + m.Chunks[j-1].Size
		raw, err := fetchRange(runOff, runEnd-runOff)
		if err != nil {
			return nil, st, err
		}
		if int64(len(raw)) != runEnd-runOff {
			return nil, st, fmt.Errorf("tsr: range fetch returned %d bytes, want %d", len(raw), runEnd-runOff)
		}
		for _, c := range m.Chunks[i:j] {
			if sha256.Sum256(raw[c.Offset-runOff:c.Offset-runOff+c.Size]) != c.Hash {
				return nil, st, fmt.Errorf("tsr: fetched chunk at %d does not match its manifest hash", c.Offset)
			}
		}
		copy(out[runOff:], raw)
		st.ChunksFetched += int64(j - i)
		st.BytesFetched += runEnd - runOff
		i = j
	}
	return out, st, nil
}

// baseChunks maps the chunk hashes of old to their bytes: from oldM
// when it tiles old exactly, otherwise by cutting and hashing old.
func baseChunks(old []byte, oldM *store.ChunkManifest) map[[sha256.Size]byte][]byte {
	if oldM != nil && oldM.TotalSize == int64(len(old)) && oldM.Valid() == nil {
		chunks := make(map[[sha256.Size]byte][]byte, len(oldM.Chunks))
		for _, c := range oldM.Chunks {
			chunks[c.Hash] = old[c.Offset : c.Offset+c.Size]
		}
		return chunks
	}
	spans := store.CutChunks(old)
	chunks := make(map[[sha256.Size]byte][]byte, len(spans))
	for _, s := range spans {
		b := old[s.Offset : s.Offset+s.Size]
		chunks[sha256.Sum256(b)] = b
	}
	return chunks
}

func decodeHash32(s string, out *[sha256.Size]byte) error {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != sha256.Size {
		return fmt.Errorf("tsr: chunk manifest: bad hash %q", s)
	}
	copy(out[:], b)
	return nil
}
