package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
)

// This file holds the content-defined chunker, whose cut rule
// docs/API.md states as part of the wire contract: package bytes are
// first split into pieces at the layout boundaries the apk framing
// writes (the end of every deflate run, the start of every gzip
// member), then each piece is cut into ~8–64KiB chunks by a Gear
// rolling hash. A one-file version bump therefore shares every
// chunk except the re-signed head, that file's run and the trailer.
// Chunk hashes are untrusted transfer metadata — the reassembled bytes
// must still match the signed index entry hash end-to-end.

// Content-defined chunking parameters. MinChunkSize bytes are skipped
// before the rolling hash is consulted, AvgChunkMask picks an expected
// ~16KiB gap between boundaries past the minimum, and MaxChunkSize
// forces a cut so a pathological stream cannot produce unbounded
// chunks. All three are part of the wire contract: client and server
// must cut identically for differential sync to find shared chunks.
const (
	MinChunkSize = 8 << 10
	MaxChunkSize = 64 << 10
	// AvgChunkMask has 14 low bits set: boundary when the rolling
	// hash masks to zero, i.e. every ~16KiB of content on average.
	AvgChunkMask = (1 << 14) - 1
)

// gearTable is the 256-entry random table driving the Gear hash. It is
// derived deterministically from splitmix64 so every build — and both
// sides of the wire — agree on chunk boundaries without shipping the
// table.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	// splitmix64 with a fixed seed; see Steele et al., "Fast
	// Splittable Pseudorandom Number Generators".
	state := uint64(0x746573725f636463) // "tsr_cdc"
	for i := range t {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// Span is one chunk's position within the whole blob.
type Span struct {
	Offset int64 `json:"offset"`
	Size   int64 `json:"size"`
}

// Layout boundaries. Every deflate run the apk framing writes, and
// every gzip member's final stored block, ends in the sync marker
// syncMarker; every gzip member starts with gzipMagic. A piece ends
// right after a sync marker once it holds minSyncPiece bytes, and
// right before a gzip magic once it holds minMagicPiece bytes, so the
// data member starts a piece of its own and the control member's CRC
// trailer does not pull the first file's run into a fetch. The cut
// reads only the bytes: it needs no apk knowledge to agree on both
// sides of the wire.
var (
	syncMarker = []byte{0x00, 0x00, 0xff, 0xff}
	gzipMagic  = []byte{0x1f, 0x8b, 0x08}
)

const (
	minSyncPiece  = 512
	minMagicPiece = 8
	// The k-th layout cut is taken only at an offset of at least
	// (k-layoutSlack)·MinChunkSize/layoutPerMin, so marker-dense content
	// cannot blow up the manifest: an n-byte blob has at most
	// (layoutPerMin+1)·n/MinChunkSize + layoutSlack + 1 chunks. The
	// budget depends only on the bytes before the cut.
	layoutSlack  = 8
	layoutPerMin = 4
)

// marker finds one layout pattern's boundaries in a single forward
// sweep: lookups come with non-decreasing lower bounds, so each byte
// is searched about once whatever the number of pieces.
type marker struct {
	pat   []byte
	shift int // boundary = match offset + shift
	at    int // the last boundary found
}

// next returns the first boundary at or after lo (lo > shift), or
// len(data) when there is none.
func (m *marker) next(data []byte, lo int) int {
	if m.at >= lo {
		return m.at
	}
	m.at = len(data)
	if from := lo - m.shift; from < len(data) {
		if i := bytes.Index(data[from:], m.pat); i >= 0 {
			m.at = from + i + m.shift
		}
	}
	return m.at
}

// CutChunks splits data at layout boundaries (see syncMarker) and,
// inside each piece, at content-defined boundaries. Every byte of data
// is covered exactly once, in order; an empty input yields no spans.
// The cut points depend only on the bytes, so two blobs sharing a long
// run of identical bytes share the chunk boundaries inside it, and two
// packages sharing a deflate run share the chunks that hold it.
func CutChunks(data []byte) []Span {
	var spans []Span
	runEnd := marker{pat: syncMarker, shift: len(syncMarker)}
	member := marker{pat: gzipMagic}
	cuts := 0
	for start := 0; start < len(data); {
		floor := max(cuts+1-layoutSlack, 0) * MinChunkSize / layoutPerMin
		end := min(runEnd.next(data, max(start+minSyncPiece, floor)),
			member.next(data, max(start+minMagicPiece, floor)))
		if end < len(data) {
			cuts++
		}
		spans = cutPiece(spans, data, start, end)
		start = end
	}
	return spans
}

// cutPiece appends the Gear chunks of data[start:end]: past
// MinChunkSize, a chunk ends where the rolling hash masks to zero, at
// MaxChunkSize, or at the piece's end.
func cutPiece(spans []Span, data []byte, start, end int) []Span {
	for off := start; off < end; {
		limit := min(off+MaxChunkSize, end)
		cut := limit
		var h uint64
		for i := off + MinChunkSize; i < limit; i++ {
			h = (h << 1) + gearTable[data[i]]
			if h&AvgChunkMask == 0 {
				cut = i + 1
				break
			}
		}
		spans = append(spans, Span{Offset: int64(off), Size: int64(cut - off)})
		off = cut
	}
	return spans
}

// ManifestChunk is one chunk entry in a manifest: its span plus the
// SHA-256 of its bytes.
type ManifestChunk struct {
	Span
	Hash [sha256.Size]byte
}

// ChunkManifest describes one package blob as content-defined chunks.
// PackageHash is the SHA-256 of the whole blob — the same value the
// signed index entry carries — which roots the manifest in the trust
// chain: a client accepts a manifest only when PackageHash matches the
// signed entry, and accepts the reassembled bytes only when they hash
// to it. The per-chunk hashes are pure transfer optimization and are
// never trusted on their own.
type ChunkManifest struct {
	PackageHash [sha256.Size]byte
	TotalSize   int64
	Chunks      []ManifestChunk
}

// BuildManifest chunks data and hashes every chunk plus the whole.
func BuildManifest(data []byte) *ChunkManifest {
	spans := CutChunks(data)
	m := &ChunkManifest{
		PackageHash: sha256.Sum256(data),
		TotalSize:   int64(len(data)),
		Chunks:      make([]ManifestChunk, len(spans)),
	}
	for i, s := range spans {
		m.Chunks[i] = ManifestChunk{
			Span: s,
			Hash: sha256.Sum256(data[s.Offset : s.Offset+s.Size]),
		}
	}
	return m
}

// Valid checks the manifest's internal consistency: chunks must tile
// [0, TotalSize) contiguously with sizes in (0, MaxChunkSize], and an
// empty blob must have no chunks. It does NOT vouch for the hashes —
// only reassembly against the signed entry hash does that.
func (m *ChunkManifest) Valid() error {
	if m.TotalSize < 0 {
		return fmt.Errorf("store: manifest: negative total size %d", m.TotalSize)
	}
	var off int64
	for i, c := range m.Chunks {
		if c.Offset != off {
			return fmt.Errorf("store: manifest: chunk %d offset %d, want %d", i, c.Offset, off)
		}
		if c.Size <= 0 || c.Size > MaxChunkSize {
			return fmt.Errorf("store: manifest: chunk %d size %d out of range", i, c.Size)
		}
		off += c.Size
	}
	if off != m.TotalSize {
		return fmt.Errorf("store: manifest: chunks cover %d bytes, total %d", off, m.TotalSize)
	}
	return nil
}
