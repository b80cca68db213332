// Package apk implements the Alpine-style package format the paper
// targets (Figure 3): an archive of three concatenated gzip streams —
//
//	signature segment: ".SIGN.RSA.<key name>" files holding digital
//	  signatures issued over the raw control segment,
//	control segment: ".PKGINFO" (name, version, dependencies, and the
//	  hash of the data segment) plus installation scripts,
//	data segment: the package files, with extended attributes (such as
//	  the per-file IMA signatures TSR injects) carried in PAX headers,
//	  exactly as §5.3 describes.
//
// Both segments are tar archives. The control segment's exact bytes are
// what the signature covers, so Encode is deterministic and a reader
// checks the signature over the bytes it inflated. Walk is the one
// reader of a whole package: it inflates the head members once, checks
// the signature before any data is inflated, and hands each file to its
// caller in a reused scratch buffer, so a package manager can compare a
// file in place with the installed one and copy only what differs.
// Decode, DecodeMeta and VerifyRaw are Walk with a visitor that copies
// each file or with none; they and Rewrite read the data segment through
// one streamed walker, so they make the same format and hash checks;
// DecodeHead reads only the two members before it.
//
// Each gzip member is a sequence of independently deflated runs: the
// gzip header; per run, the output of a freshly Reset flate writer
// ending in a sync flush; an empty final block; and the CRC-32 and size
// of the whole segment. Any gzip reader decodes it as one member. The
// data member has one run per tar entry (PAX header, header, content,
// padding), small consecutive entries grouped until a run holds at
// least 32 KiB. A file therefore compresses to the same bytes wherever
// it sits in whichever package, so a RunMemo can reuse them, and a
// version bump changes only the changed files' runs on the wire. Encode,
// Decode and Rewrite reuse pooled compressors and scratch buffers; a
// Reset flate writer emits the same bytes as a fresh one, so output is
// byte-stable whichever pooled writer produced it.
package apk

import (
	"archive/tar"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tsr/internal/keys"
)

// Signature and segment naming conventions.
const (
	// SignaturePrefix prefixes signature member names in the signature
	// segment, followed by the signing key name.
	SignaturePrefix = ".SIGN.RSA."
	// ControlName is the metadata member inside the control segment.
	ControlName = ".PKGINFO"
	// XattrIMA is the PAX/xattr key carrying a file's IMA signature
	// (EVM portable signature in real systems).
	XattrIMA = "security.ima"
	// paxXattrPrefix is the PAX record prefix GNU/star use for xattrs.
	paxXattrPrefix = "SCHILY.xattr."
)

// Error sentinels.
var (
	ErrFormat      = errors.New("apk: malformed package")
	ErrContentHash = errors.New("apk: data segment hash mismatch")
)

// File is one entry of the data segment.
type File struct {
	// Path is absolute inside the target filesystem ("/usr/bin/x").
	Path string
	// Mode holds the permission bits.
	Mode uint32
	// Content is the file payload.
	Content []byte
	// Xattrs carries extended attributes (PAX records on the wire).
	Xattrs map[string][]byte
}

// Package is a parsed (or to-be-encoded) software package.
type Package struct {
	// Name, Version and Arch identify the package.
	Name    string
	Version string
	Arch    string
	// Depends lists package names this package requires.
	Depends []string
	// Scripts maps hook names ("pre-install", "post-install",
	// "pre-upgrade", "post-upgrade") to script source text.
	Scripts map[string]string
	// Files is the data segment contents.
	Files []File
	// Signatures maps signing key names to signatures over the raw
	// control segment.
	Signatures map[string][]byte
}

// ScriptNames returns the script hook names in sorted order.
func (p *Package) ScriptNames() []string {
	names := make([]string, 0, len(p.Scripts))
	for n := range p.Scripts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// UncompressedSize returns the total content size of the data segment,
// the "uncompressed package size" axis of Figure 8.
//
//lint:allow deadexport tests size packages along Figure 8's axis with it
func (p *Package) UncompressedSize() int64 {
	var n int64
	for _, f := range p.Files {
		n += int64(len(f.Content))
	}
	return n
}

// DataHash computes the SHA-256 of the encoded data segment; this is the
// "hash of the package contents" stored in the control segment.
func (p *Package) DataHash() ([32]byte, error) {
	d := &dataWriter{h: sha256.New()}
	d.tw = tar.NewWriter(d)
	if err := writeDataSegment(d, p.Files); err != nil {
		return [32]byte{}, err
	}
	return d.close()
}

// ControlBytes renders the control segment exactly as Encode embeds it;
// signatures are issued over these bytes.
func (p *Package) ControlBytes() ([]byte, error) {
	hash, err := p.DataHash()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeControlSegment(&buf, p, hash); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// codec is the reusable state of one Encode, Decode or Rewrite: a
// decompressor, the scratch the segments are built in, the open data
// run or the head members, and the one data-segment file being read.
// Pooling it, and the compressors, leaves the exact-size package
// (Encode, Rewrite) or the file contents (Decode) as the only per-call
// payload allocation, except for a package whose data member outgrows
// the data scratch: that one is built in a buffer of its own (see
// dataWriter.room), which the package is cut from or copied out of
// (see assemble).
type codec struct {
	zr     gzip.Reader
	seg    [3]bytes.Buffer // signature, control, data
	out    bytes.Buffer
	file   []byte
	walked int // data-segment bytes walkData has read so far
}

// maxPooledScratch caps each scratch buffer a pooled codec keeps.
// Pooled memory is live to the collector, so keeping the buffers of the
// largest packages would raise the heap goal, and the resident size, of
// every process that ever handled one. A larger buffer is dropped; the
// next large call sizes a fresh one up front instead of growing it.
const maxPooledScratch = 256 << 10

var codecs = sync.Pool{New: func() any { return new(codec) }}

// deflaters keeps up to GOMAXPROCS idle flate writers, apart from the
// codecs. A writer is taken only for the run it compresses, so it is
// most likely one a worker used moments ago, its 640 KiB of deflate
// tables still in cache. Held through a whole Rewrite, as a codec is,
// it went cold while the files were signed: in a CPU profile of the
// benchmark on a 2-vCPU host, deflate then cost about a third more per
// sanitized package. A collection empties a sync.Pool, after which
// every compression built its writer again, so the writers in the
// bounded list outlive collections. Writers idle beyond it, held by
// workers descheduled mid-run, go to spareDeflaters, a pool: kept
// forever, they would only raise the heap goal and the resident size.
var (
	deflaters      = make(chan *flate.Writer, runtime.GOMAXPROCS(0))
	spareDeflaters = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(nil, flate.DefaultCompression)
		if err != nil {
			panic(err) // only an invalid level fails
		}
		return zw
	}}
)

// getDeflater returns an idle flate writer, or a new one.
func getDeflater() *flate.Writer {
	select {
	case zw := <-deflaters:
		return zw
	default:
		return spareDeflaters.Get().(*flate.Writer)
	}
}

// putDeflater keeps zw idle for reuse.
func putDeflater(zw *flate.Writer) {
	select {
	case deflaters <- zw:
	default:
		spareDeflaters.Put(zw)
	}
}

func getCodec() *codec {
	c := codecs.Get().(*codec)
	for i := range c.seg {
		c.seg[i].Reset()
	}
	c.out.Reset()
	return c
}

func putCodec(c *codec) {
	for _, b := range []*bytes.Buffer{&c.seg[0], &c.seg[1], &c.seg[2], &c.out} {
		if b.Cap() > maxPooledScratch {
			*b = bytes.Buffer{}
		}
	}
	if cap(c.file) > maxPooledScratch {
		c.file = nil
	}
	codecs.Put(c)
}

// Encode serializes the package to its on-wire form. The data segment
// is tarred once, straight into its compressed member; its digest goes
// into the control segment.
func Encode(p *Package) ([]byte, error) {
	c := getCodec()
	defer putCodec(c)
	// Before the first run boundary, the member is taken to be content
	// and xattrs plus, per file, about a header block (deflate expands
	// incompressible input by well under 1%); past one, its size is
	// projected from there, as the output written per content byte.
	n, content := 1<<10, 0
	for _, f := range p.Files {
		content += len(f.Content)
		n += len(f.Content) + 512
		for _, v := range f.Xattrs {
			n += len(v)
		}
	}
	d := c.dataWriter(nil, nil, func(out, written int) int {
		if written == 0 {
			return n + n>>7
		}
		return project(out, content, written)
	})
	if err := writeDataSegment(d, p.Files); err != nil {
		return nil, err
	}
	sum, err := d.close()
	if err != nil {
		return nil, err
	}
	if err := writeControlSegment(&c.seg[1], p, sum); err != nil {
		return nil, err
	}
	if err := writeSignatureSegment(&c.seg[0], p.Signatures); err != nil {
		return nil, err
	}
	return c.assemble(d.dst)
}

// Walk reads an encoded package in one pass, with the checks stock apk
// makes before it installs anything. It inflates the signature and
// control members once and, before it inflates any data, requires a
// signature by a ring key, under that key's name, over the exact
// control-segment bytes (a nil ring holds no key). It then streams the
// data member, calling visit with each file in archive order, and last
// checks the datahash over every byte, the framing and that nothing
// trails. visit owns f.Path and f.Xattrs; f.Content is the codec's
// reused scratch, valid until visit returns. A nil visit only hashes.
// Walk returns the package's metadata, scripts and signatures (Files
// nil) and the name of the key that verified it. A visit error stops
// the walk and is returned as is. Until Walk returns nil, what visit
// saw may come from a package that fails a check: a caller acts on the
// files only after.
//
// This is the check both the package manager (§2.2, "verifies that a
// trusted entity created the package") and TSR's sanitizer perform.
func Walk(raw []byte, ring *keys.Ring, visit func(f *File) error) (*Package, string, error) {
	if ring == nil {
		ring = &keys.Ring{}
	}
	return walk(raw, ring, visit)
}

// walk is Walk; a nil ring skips the signature check.
func walk(raw []byte, ring *keys.Ring, visit func(f *File) error) (*Package, string, error) {
	c := getCodec()
	defer putCodec(c)
	r, p, declared, err := c.readHead(raw)
	if err != nil {
		return nil, "", err
	}
	var signer string
	if ring != nil {
		if signer, err = signedBy(p, c.seg[1].Bytes(), ring); err != nil {
			return nil, "", err
		}
	}
	if err := c.walkData(r, declared, visit); err != nil {
		return nil, "", err
	}
	return p, signer, nil
}

// Decode parses an encoded package, verifying the control segment's
// content hash against the data segment. It checks no signature.
func Decode(raw []byte) (*Package, error) {
	var files []File
	p, _, err := walk(raw, nil, collect(&files))
	if err != nil {
		return nil, err
	}
	p.Files = files
	return p, nil
}

// collect returns a visitor that appends a copy of each file to files.
func collect(files *[]File) func(f *File) error {
	return func(f *File) error {
		f.Content = append(make([]byte, 0, len(f.Content)), f.Content...)
		*files = append(*files, *f)
		return nil
	}
}

// DecodeMeta is Decode without the file contents, for callers that read
// only a package's metadata or scripts. It makes every check Decode
// makes — member framing, tar headers, the data-segment hash, no
// trailing bytes — so it fails exactly where Decode fails, but it
// streams the data segment through the hash, discards it, and returns
// the package with Files nil. What it allocates does not grow with the
// data segment.
func DecodeMeta(raw []byte) (*Package, error) {
	p, _, err := walk(raw, nil, nil)
	return p, err
}

// DecodeHead parses the signature and control members only: it returns
// the package's metadata, scripts and signatures (Files nil) without
// inflating the data member, so its cost does not grow with the data
// segment. It does not check the data member at all — a package it
// accepts may still fail Decode — so it suits callers whose bytes go
// on to a step that makes those checks: the fetch stage reads hook
// scripts with it, and Rewrite, which checks every byte of the data
// member before any output exists, sanitizes the same bytes next.
func DecodeHead(raw []byte) (*Package, error) {
	c := getCodec()
	defer putCodec(c)
	_, p, _, err := c.readHead(raw)
	return p, err
}

// A Rewriter supplies the caller's steps of Rewrite.
type Rewriter interface {
	// Control vets the package before its data member is inflated: p
	// holds the metadata, scripts and signatures (Files nil), and
	// control the exact control-segment bytes the signatures cover,
	// valid until Control returns. Control may replace p.Scripts; the
	// output carries p's metadata and scripts.
	Control(p *Package, control []byte) error
	// File is called with each data-segment file in archive order;
	// f.Content is valid until File returns. File may set f.Xattrs,
	// which the output then carries.
	File(f *File) error
	// Sign signs the output's control segment. The signature, under
	// keyName, becomes the output's only signature.
	Sign(control []byte) (keyName string, sig []byte, err error)
}

// Rewrite re-encodes raw in one streamed pass, with the checks Decode
// makes. It inflates the signature and control members and hands them
// to rw.Control before any data is inflated; it then streams the data
// member file by file through rw.File into the output's compressed
// data member, hashing both sides as they pass; last it renders the
// control segment with the new data hash and signs it with rw.Sign.
// Besides raw, only the output (in the pooled data scratch and its
// exact-size copy, or, when larger, in the one buffer it is returned
// in; see assemble), one file and the open run of the output tar stream
// (at most 256 KiB; see dataWriter) are held.
// Files keep their archive order, so a path-sorted input yields exactly
// the bytes Encode gives for the rewritten package. The output's data
// runs go through runs when it is not nil.
func Rewrite(raw []byte, rw Rewriter, runs *RunMemo) ([]byte, error) {
	c := getCodec()
	defer putCodec(c)
	r, p, declared, err := c.readHead(raw)
	if err != nil {
		return nil, err
	}
	if err := rw.Control(p, c.seg[1].Bytes()); err != nil {
		return nil, err
	}

	// The output's data member is the input's plus, per file, a
	// signature that does not compress. Past a run boundary its size is
	// projected from there: the output written per data-segment byte
	// read, times the input's data segment, whose size ends raw. Before
	// one, the signatures are taken to add a sixteenth.
	in, segment := r.Len(), int(binary.LittleEndian.Uint32(raw[len(raw)-4:]))
	d := c.dataWriter(runs, func() int { return c.walked }, func(out, read int) int {
		if read == 0 {
			return in + in>>4 + 1<<10
		}
		return project(out, segment, read)
	})
	err = c.walkData(r, declared, func(f *File) error {
		if err := rw.File(f); err != nil {
			return err
		}
		return d.file(f)
	})
	if err != nil {
		return nil, err
	}
	sum, err := d.close()
	if err != nil {
		return nil, err
	}

	c.seg[1].Reset()
	if err := writeControlSegment(&c.seg[1], p, sum); err != nil {
		return nil, err
	}
	name, sig, err := rw.Sign(c.seg[1].Bytes())
	if err != nil {
		return nil, err
	}
	c.seg[0].Reset()
	if err := writeSignatureSegment(&c.seg[0], map[string][]byte{name: sig}); err != nil {
		return nil, err
	}
	return c.assemble(d.dst)
}

// HeadRoom is the space reserved in front of a data member that
// outgrows the data scratch, for the signature and control members,
// which are written last. With one signature those two take about 420
// bytes, more only with long scripts.
const HeadRoom = 2 << 10

// assemble returns the package whose signature and control segments
// are c.seg[0] and c.seg[1] and whose compressed data member is data.
// The two head members are compressed into c.out. A data member in the
// pooled data scratch, c.seg[2], is copied with them into an exact-size
// slice. One that outgrew the scratch follows HeadRoom in a buffer of
// its own (see dataWriter.room); the head members are copied into the
// end of the head room when they fit, and the package is that buffer's
// array unless the array would hold more than an eighth of the
// package's length that the package does not use — the head room's
// unused front included. Otherwise, as when the head members do not
// fit, the package is copied out into an exact-size slice.
func (c *codec) assemble(data *bytes.Buffer) ([]byte, error) {
	c.out.Reset()
	for i := 0; i < 2; i++ {
		seg := c.seg[i].Bytes()
		c.out.Write(gzipHeader[:])
		if err := deflateRun(&c.out, seg); err != nil {
			return nil, err
		}
		closeMember(&c.out, crc32.ChecksumIEEE(seg), uint32(len(seg)))
	}
	b, head := data.Bytes(), c.out.Bytes()
	if data != &c.seg[2] {
		if start := HeadRoom - len(head); start >= 0 {
			pkg := b[start:]
			copy(pkg, head)
			if cap(b)-len(pkg) <= len(pkg)>>3 {
				return pkg, nil
			}
		}
		b = b[HeadRoom:]
	}
	return append(append(make([]byte, 0, len(head)+len(b)), head...), b...), nil
}

// Data-member runs: a run is closed at the end of the first tar entry
// that brings it to runSize bytes. Resetting a flate writer clears its
// 640 KiB of hash tables, so grouping small entries pays that at most
// once per runSize of input. A run buffers at most maxRun bytes; one
// that outgrows it (a large file) is deflated as it arrives and is not
// memoized.
const (
	runSize = 32 << 10
	maxRun  = maxPooledScratch
)

// gzipHeader starts every member: deflate, no flags, no modification
// time, unknown OS — what gzip.Writer writes at the default level.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// deflateRun appends p to dst as one run: the output of a Reset flate
// writer, ended by a sync flush so that the next run starts on a byte
// boundary with no back-references into this one.
func deflateRun(dst *bytes.Buffer, p []byte) error {
	zw := getDeflater()
	defer putDeflater(zw)
	zw.Reset(dst)
	if _, err := zw.Write(p); err != nil {
		return fmt.Errorf("apk: compressing segment: %w", err)
	}
	if err := zw.Flush(); err != nil {
		return fmt.Errorf("apk: compressing segment: %w", err)
	}
	return nil
}

// closeMember ends a member's runs: an empty final stored block, then
// the gzip trailer of the segment's CRC-32 and size.
func closeMember(dst *bytes.Buffer, crc, size uint32) {
	dst.Write([]byte{1, 0, 0, 0xff, 0xff})
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[:4], crc)
	binary.LittleEndian.PutUint32(trailer[4:], size)
	dst.Write(trailer[:])
}

// dataWriter tars a data segment, hashing the tar stream for the
// control segment and, when dst is set, compressing it into dst as a
// gzip member of runs. The open run is buffered in buf.
type dataWriter struct {
	tw   *tar.Writer
	h    hash.Hash
	dst  *bytes.Buffer // nil: hash only
	buf  *bytes.Buffer
	runs *RunMemo
	crc  uint32
	size uint32        // mod 2^32, as the gzip trailer stores it
	zw   *flate.Writer // set while an outgrown run streams

	// Sizing a member that outgrows the scratch (see room): read, when
	// set, reports how much of the caller's input is read, and content
	// counts the file content written; at each run boundary outAt
	// records the member's length and inAt read, or content when read
	// is nil. expect estimates the member's final size from those two,
	// which are 0 before the first boundary.
	read        func() int
	content     int
	outAt, inAt int
	expect      func(out, read int) int
	spilled     bool // dst is no longer the scratch
}

// dataWriter returns a writer of a data member into c.seg[2], with the
// open run in c.out.
func (c *codec) dataWriter(runs *RunMemo, read func() int, expect func(out, read int) int) *dataWriter {
	d := &dataWriter{h: sha256.New(), dst: &c.seg[2], buf: &c.out, runs: runs, read: read, expect: expect}
	d.tw = tar.NewWriter(d)
	d.dst.Write(gzipHeader[:])
	return d
}

// room makes room in dst for n more bytes. A data member starts in the
// pooled data scratch; when it would outgrow maxPooledScratch it moves,
// once, to a buffer of its own that keeps HeadRoom in front of it and
// room for what d.expect estimates. So a package that fits the scratch
// costs one exact-size copy (assemble), and a larger one is built where
// it is returned, the one copy then being of at most maxPooledScratch
// bytes.
func (d *dataWriter) room(n int) {
	if d.spilled || d.dst.Len()+n <= maxPooledScratch {
		return
	}
	size := max(d.expect(d.outAt, d.inAt), d.dst.Len()+n)
	buf := bytes.NewBuffer(make([]byte, HeadRoom, HeadRoom+size))
	buf.Write(d.dst.Bytes())
	d.dst, d.spilled = buf, true
}

// project estimates the final size of a member that is out bytes long
// after done of the total units of input it is made from: out scaled
// to total, plus a sixteenth for how the rest may differ.
func project(out, total, done int) int {
	size := int(float64(out) * float64(total) / float64(done))
	return size + size>>4
}

// memberWriter is a dataWriter as the writer of its member's bytes.
type memberWriter dataWriter

func (m *memberWriter) Write(p []byte) (int, error) {
	d := (*dataWriter)(m)
	d.room(len(p))
	return d.dst.Write(p)
}

// Write takes the tar stream.
func (d *dataWriter) Write(p []byte) (int, error) {
	d.h.Write(p)
	if d.dst == nil {
		return len(p), nil
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p)
	d.size += uint32(len(p))
	if d.zw == nil && d.buf.Len()+len(p) <= maxRun {
		d.buf.Write(p)
		return len(p), nil
	}
	if d.zw == nil {
		d.zw = getDeflater()
		d.zw.Reset((*memberWriter)(d))
		if _, err := d.zw.Write(d.buf.Bytes()); err != nil {
			return 0, fmt.Errorf("apk: compressing segment: %w", err)
		}
		d.buf.Reset()
	}
	if _, err := d.zw.Write(p); err != nil {
		return 0, fmt.Errorf("apk: compressing segment: %w", err)
	}
	return len(p), nil
}

// file appends f as one tar entry, padding included, and closes the
// open run if the entry brought it to runSize bytes.
func (d *dataWriter) file(f *File) error {
	if err := writeFile(d.tw, f); err != nil {
		return err
	}
	d.content += len(f.Content)
	if err := d.tw.Flush(); err != nil {
		return fmt.Errorf("apk: data segment: %w", err)
	}
	if d.dst == nil || (d.zw == nil && d.buf.Len() < runSize) {
		return nil
	}
	return d.endRun()
}

// endRun compresses the open run into dst.
func (d *dataWriter) endRun() error {
	if d.zw != nil {
		err := d.zw.Flush()
		putDeflater(d.zw)
		d.zw = nil
		if err != nil {
			return fmt.Errorf("apk: compressing segment: %w", err)
		}
	} else {
		// Deflate expands a run by well under a 128th.
		d.room(d.buf.Len() + d.buf.Len()>>7 + 64)
		err := d.runs.deflate(d.dst, d.buf.Bytes())
		d.buf.Reset()
		if err != nil {
			return err
		}
	}
	d.outAt, d.inAt = d.dst.Len(), d.content
	if d.read != nil {
		d.inAt = d.read()
	}
	return nil
}

// close ends the tar stream, and the member if one is being written,
// and returns the SHA-256 of the tar stream.
func (d *dataWriter) close() ([32]byte, error) {
	var sum [32]byte
	if err := d.tw.Close(); err != nil {
		return sum, fmt.Errorf("apk: data segment: %w", err)
	}
	if d.dst != nil {
		if err := d.endRun(); err != nil {
			return sum, err
		}
		d.room(13) // closeMember's end block and trailer
		closeMember(d.dst, d.crc, d.size)
	}
	d.h.Sum(sum[:0])
	return sum, nil
}

// RawControlSegment extracts the exact control segment bytes from an
// encoded package, for signature verification without a full decode.
// Only the signature and control members are decompressed — the (much
// larger) data segment is not touched, so the integrity check costs
// roughly the same regardless of package size.
//
//lint:allow deadexport tests take the bytes a package's signatures cover with it
func RawControlSegment(raw []byte) ([]byte, error) {
	c := getCodec()
	defer putCodec(c)
	if _, err := c.inflateHead(raw); err != nil {
		return nil, err
	}
	return bytes.Clone(c.seg[1].Bytes()), nil
}

// inflateHead decompresses the signature and control members of raw
// into c.seg[0] and c.seg[1] and returns the reader positioned at the
// data member.
func (c *codec) inflateHead(raw []byte) (*bytes.Reader, error) {
	r := bytes.NewReader(raw)
	for i := 0; i < 2; i++ {
		if err := c.inflate(r, i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// readHead inflates and parses the signature and control members of
// raw. It returns the reader positioned at the data member and the data
// hash the control segment declares; the control bytes stay in
// c.seg[1].
func (c *codec) readHead(raw []byte) (*bytes.Reader, *Package, [32]byte, error) {
	r, err := c.inflateHead(raw)
	if err != nil {
		return nil, nil, [32]byte{}, err
	}
	p := &Package{}
	if err := decodeSignatureSegment(c.seg[0].Bytes(), p); err != nil {
		return nil, nil, [32]byte{}, err
	}
	declared, err := decodeControlSegment(c.seg[1].Bytes(), p)
	if err != nil {
		return nil, nil, [32]byte{}, err
	}
	return r, p, declared, nil
}

// inflate decompresses the next gzip member of r, segment i, into
// c.seg[i].
func (c *codec) inflate(r *bytes.Reader, i int) error {
	if err := c.openMember(r, i); err != nil {
		return err
	}
	if _, err := c.seg[i].ReadFrom(&c.zr); err != nil {
		return fmt.Errorf("%w: segment %d: %v", ErrFormat, i, err)
	}
	return nil
}

// tally hashes what is written to it and adds its length to *n.
type tally struct {
	hash.Hash
	n *int
}

func (t tally) Write(p []byte) (int, error) {
	*t.n += len(p)
	return t.Hash.Write(p)
}

// openMember points c.zr at the next gzip member of r, segment i.
// Reading from a bytes.Reader, the decompressor consumes exactly the
// member, so r.Len() is what follows it.
func (c *codec) openMember(r *bytes.Reader, i int) error {
	if err := c.zr.Reset(r); err != nil {
		if err == io.EOF && i > 0 {
			return fmt.Errorf("%w: only %d of 3 segments", ErrFormat, i)
		}
		return fmt.Errorf("%w: segment %d: %v", ErrFormat, i, err)
	}
	c.zr.Multistream(false)
	return nil
}

// walkData is the one reader of data segments: it streams the data
// member at r's position through gunzip, a SHA-256 and a tar reader,
// and calls fn with each member in archive order as a File whose
// Content holds the member's bytes until fn returns. With fn nil the
// bytes only pass through the hash. After the last member it hashes
// whatever follows the end-of-archive marker, requires that nothing
// follows the member in raw, and checks the hash against declared.
func (c *codec) walkData(r *bytes.Reader, declared [32]byte, fn func(f *File) error) error {
	if err := c.openMember(r, 2); err != nil {
		return err
	}
	h := sha256.New()
	c.walked = 0
	in := io.TeeReader(&c.zr, tally{h, &c.walked})
	tr := tar.NewReader(in)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%w: data segment: %v", ErrFormat, err)
		}
		if fn == nil {
			if _, err := io.CopyN(io.Discard, tr, hdr.Size); err != nil {
				return fmt.Errorf("%w: data segment: member %q: %v", ErrFormat, hdr.Name, err)
			}
			continue
		}
		f := File{Path: "/" + hdr.Name, Mode: uint32(hdr.Mode)}
		if f.Content, err = c.readFile(tr, hdr.Size, r.Len()); err != nil {
			return fmt.Errorf("%w: data segment: member %q: %v", ErrFormat, hdr.Name, err)
		}
		for k, v := range hdr.PAXRecords {
			if strings.HasPrefix(k, paxXattrPrefix) {
				if f.Xattrs == nil {
					f.Xattrs = make(map[string][]byte)
				}
				f.Xattrs[strings.TrimPrefix(k, paxXattrPrefix)] = []byte(v)
			}
		}
		if err := fn(&f); err != nil {
			return err
		}
	}
	if _, err := io.Copy(io.Discard, in); err != nil {
		return fmt.Errorf("%w: data segment: %v", ErrFormat, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrFormat, r.Len())
	}
	var actual [32]byte
	h.Sum(actual[:0])
	if actual != declared {
		return fmt.Errorf("%w: declared %x, actual %x", ErrContentHash, declared[:8], actual[:8])
	}
	return nil
}

// maxPresize caps the file scratch reserved from a member's header.
const maxPresize = 16 << 20

// readFile reads a size-byte member from src into c.file. The size is
// the sender's claim, so the scratch is reserved up front only up to
// what the compressed bytes left in the package can inflate to
// (deflate's 1032:1 limit plus the decompressor's 32 KiB window) and
// otherwise grows as bytes arrive: a header claiming more than follows
// fails with a short read, not a large allocation.
func (c *codec) readFile(src io.Reader, size int64, left int) ([]byte, error) {
	buf := c.file[:0]
	if want := min(size, 1032*int64(left)+64<<10, maxPresize); int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	defer func() { c.file = buf }()
	for int64(len(buf)) < size {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := src.Read(buf[len(buf):min(int64(cap(buf)), size)])
		buf = buf[:len(buf)+n]
		if err == io.EOF && int64(len(buf)) < size {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
	}
	return buf, nil
}

// tarEpoch is the fixed timestamp used for all archive members, keeping
// encoding deterministic (same package bytes in, same bytes out).
var tarEpoch = time.Unix(0, 0)

func writeSignatureSegment(w io.Writer, sigs map[string][]byte) error {
	tw := tar.NewWriter(w)
	names := make([]string, 0, len(sigs))
	for name := range sigs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := writeMember(tw, SignaturePrefix+name, 0o644, sigs[name], nil); err != nil {
			return fmt.Errorf("apk: signature segment: %w", err)
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("apk: signature segment: %w", err)
	}
	return nil
}

func decodeSignatureSegment(seg []byte, p *Package) error {
	return eachMember(seg, "signature", func(hdr *tar.Header, sig []byte) error {
		if !strings.HasPrefix(hdr.Name, SignaturePrefix) {
			return fmt.Errorf("%w: unexpected signature member %q", ErrFormat, hdr.Name)
		}
		if p.Signatures == nil {
			p.Signatures = make(map[string][]byte)
		}
		p.Signatures[strings.TrimPrefix(hdr.Name, SignaturePrefix)] = sig
		return nil
	})
}

// writeControlSegment renders .PKGINFO and the script members.
func writeControlSegment(w io.Writer, p *Package, dataHash [32]byte) error {
	var info bytes.Buffer
	fmt.Fprintf(&info, "pkgname = %s\n", p.Name)
	fmt.Fprintf(&info, "pkgver = %s\n", p.Version)
	if p.Arch != "" {
		fmt.Fprintf(&info, "arch = %s\n", p.Arch)
	}
	deps := append([]string(nil), p.Depends...)
	sort.Strings(deps)
	for _, d := range deps {
		fmt.Fprintf(&info, "depend = %s\n", d)
	}
	fmt.Fprintf(&info, "datahash = %x\n", dataHash)

	tw := tar.NewWriter(w)
	if err := writeMember(tw, ControlName, 0o644, info.Bytes(), nil); err != nil {
		return fmt.Errorf("apk: control segment: %w", err)
	}
	for _, name := range p.ScriptNames() {
		if err := writeMember(tw, "."+name, 0o644, []byte(p.Scripts[name]), nil); err != nil {
			return fmt.Errorf("apk: control segment: %w", err)
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("apk: control segment: %w", err)
	}
	return nil
}

func decodeControlSegment(seg []byte, p *Package) ([32]byte, error) {
	var dataHash [32]byte
	seenInfo := false
	err := eachMember(seg, "control", func(hdr *tar.Header, content []byte) error {
		if hdr.Name == ControlName {
			seenInfo = true
			return parsePkgInfo(content, p, &dataHash)
		}
		if !strings.HasPrefix(hdr.Name, ".") {
			return fmt.Errorf("%w: unexpected control member %q", ErrFormat, hdr.Name)
		}
		if p.Scripts == nil {
			p.Scripts = make(map[string]string)
		}
		p.Scripts[strings.TrimPrefix(hdr.Name, ".")] = string(content)
		return nil
	})
	if err == nil && !seenInfo {
		err = fmt.Errorf("%w: missing %s", ErrFormat, ControlName)
	}
	return dataHash, err
}

func parsePkgInfo(content []byte, p *Package, dataHash *[32]byte) error {
	for _, line := range strings.Split(string(content), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, ok := strings.Cut(line, " = ")
		if !ok {
			return fmt.Errorf("%w: bad PKGINFO line %q", ErrFormat, line)
		}
		switch key {
		case "pkgname":
			p.Name = value
		case "pkgver":
			p.Version = value
		case "arch":
			p.Arch = value
		case "depend":
			p.Depends = append(p.Depends, value)
		case "datahash":
			decoded, err := hex.DecodeString(value)
			if err != nil || len(decoded) != 32 {
				return fmt.Errorf("%w: bad datahash %q", ErrFormat, value)
			}
			copy(dataHash[:], decoded)
		default:
			return fmt.Errorf("%w: unknown PKGINFO key %q", ErrFormat, key)
		}
	}
	if p.Name == "" || p.Version == "" {
		return fmt.Errorf("%w: PKGINFO missing pkgname/pkgver", ErrFormat)
	}
	return nil
}

// writeDataSegment tars the files into d in path order; d.close ends
// the segment.
func writeDataSegment(d *dataWriter, files []File) error {
	sorted := append([]File(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for i := range sorted {
		if err := d.file(&sorted[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeFile appends one data-segment file, its xattrs as PAX records.
func writeFile(tw *tar.Writer, f *File) error {
	if !strings.HasPrefix(f.Path, "/") {
		return fmt.Errorf("%w: file path %q not absolute", ErrFormat, f.Path)
	}
	var pax map[string]string
	if len(f.Xattrs) > 0 {
		pax = make(map[string]string, len(f.Xattrs))
		for k, v := range f.Xattrs {
			pax[paxXattrPrefix+k] = string(v)
		}
	}
	if err := writeMember(tw, strings.TrimPrefix(f.Path, "/"), int64(f.Mode), f.Content, pax); err != nil {
		return fmt.Errorf("apk: data segment: %w", err)
	}
	return nil
}

// writeMember appends one member with the fixed header fields every
// segment uses.
func writeMember(tw *tar.Writer, name string, mode int64, content []byte, pax map[string]string) error {
	hdr := &tar.Header{
		Name:       name,
		Mode:       mode,
		Size:       int64(len(content)),
		ModTime:    tarEpoch,
		Format:     tar.FormatPAX,
		PAXRecords: pax,
	}
	if err := tw.WriteHeader(hdr); err != nil {
		return err
	}
	_, err := tw.Write(content)
	return err
}

// eachMember calls fn with every member of the tar segment seg and a
// copy of its content in an exact-size slice. The slice is allocated
// only once the header's size is known to fit in what is left of the
// segment, so a hostile header gets ErrFormat, not a large allocation.
func eachMember(seg []byte, what string, fn func(hdr *tar.Header, content []byte) error) error {
	br := bytes.NewReader(seg)
	tr := tar.NewReader(br)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: %s segment: %v", ErrFormat, what, err)
		}
		if hdr.Size < 0 || hdr.Size > int64(br.Len()) {
			return fmt.Errorf("%w: %s segment: member %q claims %d bytes, %d left", ErrFormat, what, hdr.Name, hdr.Size, br.Len())
		}
		content := make([]byte, hdr.Size)
		if _, err := io.ReadFull(tr, content); err != nil {
			return fmt.Errorf("%w: %s segment: %v", ErrFormat, what, err)
		}
		if err := fn(hdr, content); err != nil {
			return err
		}
	}
}
