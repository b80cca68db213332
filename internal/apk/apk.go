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
// what the signature covers, so Decode keeps them available for
// verification and Encode is deterministic. Decode, DecodeMeta and
// Rewrite read the data segment through one streamed walker, so they
// make the same format and hash checks. Encode, Decode and Rewrite
// reuse pooled compressors and scratch buffers; a Reset gzip writer
// emits the same bytes as a fresh one, so output is byte-stable
// whichever pooled writer produced it.
package apk

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
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

// FileCount returns the number of files in the data segment.
func (p *Package) FileCount() int { return len(p.Files) }

// UncompressedSize returns the total content size of the data segment,
// the "uncompressed package size" axis of Figure 8.
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
	h := sha256.New()
	if err := writeDataSegment(h, p.Files); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
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
// decompressor, the scratch the segments are built in and the one
// data-segment file being read. Pooling it, and the compressors, leaves
// the returned bytes (Encode, Rewrite) or file contents (Decode) as the
// only per-call payload allocations.
type codec struct {
	zr   gzip.Reader
	seg  [3]bytes.Buffer // signature, control, data
	out  bytes.Buffer
	file []byte
}

// maxPooledScratch caps each scratch buffer a pooled codec keeps.
// Pooled memory is live to the collector, so keeping the buffers of the
// largest packages would raise the heap goal, and the resident size, of
// every process that ever handled one. A larger buffer is dropped; the
// next large call sizes a fresh one up front instead of growing it.
const maxPooledScratch = 256 << 10

var codecs = sync.Pool{New: func() any { return new(codec) }}

// compressors pools gzip writers apart from the codecs. A writer is
// taken only for the burst that compresses, so it is most likely the
// one this P used last, its 640 KiB of deflate tables still in cache.
// Held through a whole Rewrite, as a codec is, it went cold while the
// files were signed: in a CPU profile of the benchmark on a 2-vCPU
// host, deflate then cost about a third more per sanitized package.
var compressors = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

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
// is tarred once: its digest goes into the control segment and its
// bytes into the third gzip member.
func Encode(p *Package) ([]byte, error) {
	c := getCodec()
	defer putCodec(c)
	// Content plus, per file, a header, a PAX extension and padding.
	c.seg[2].Grow(int(p.UncompressedSize()) + len(p.Files)<<11 + 1<<10)
	if err := writeDataSegment(&c.seg[2], p.Files); err != nil {
		return nil, err
	}
	if err := writeControlSegment(&c.seg[1], p, sha256.Sum256(c.seg[2].Bytes())); err != nil {
		return nil, err
	}
	if err := writeSignatureSegment(&c.seg[0], p.Signatures); err != nil {
		return nil, err
	}
	// Deflate expands incompressible input by well under 1%.
	n := c.seg[0].Len() + c.seg[1].Len() + c.seg[2].Len()
	c.out.Grow(n + n>>7 + 1<<10)
	zw := compressors.Get().(*gzip.Writer)
	defer compressors.Put(zw)
	for i := range c.seg {
		if err := compress(zw, &c.out, c.seg[i].Bytes()); err != nil {
			return nil, err
		}
	}
	return bytes.Clone(c.out.Bytes()), nil
}

// compress appends seg to dst as one gzip member.
func compress(zw *gzip.Writer, dst *bytes.Buffer, seg []byte) error {
	zw.Reset(dst)
	if _, err := zw.Write(seg); err != nil {
		return fmt.Errorf("apk: compressing segment: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("apk: compressing segment: %w", err)
	}
	return nil
}

// Decode parses an encoded package, verifying the control segment's
// content hash against the data segment.
func Decode(raw []byte) (*Package, error) { return decode(raw, true) }

// DecodeMeta is Decode without the file contents, for callers that read
// only a package's metadata or scripts. It makes every check Decode
// makes — member framing, tar headers, the data-segment hash, no
// trailing bytes — so it fails exactly where Decode fails, but it
// streams the data segment through the hash, discards it, and returns
// the package with Files nil. What it allocates does not grow with the
// data segment.
func DecodeMeta(raw []byte) (*Package, error) { return decode(raw, false) }

func decode(raw []byte, files bool) (*Package, error) {
	c := getCodec()
	defer putCodec(c)
	r, p, declared, err := c.readHead(raw)
	if err != nil {
		return nil, err
	}
	var keep func(f *File) error
	if files {
		keep = func(f *File) error {
			f.Content = append(make([]byte, 0, len(f.Content)), f.Content...)
			p.Files = append(p.Files, *f)
			return nil
		}
	}
	if err := c.walkData(r, declared, keep); err != nil {
		return nil, err
	}
	return p, nil
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
// Besides raw, only the compressed output, one file and a bounded
// batch of the output tar stream (see memberWriter) are held. Files
// keep their archive order, so a path-sorted input yields exactly the
// bytes Encode gives for the rewritten package.
func Rewrite(raw []byte, rw Rewriter) ([]byte, error) {
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
	// signature that does not compress.
	c.seg[2].Grow(r.Len() + r.Len()>>3 + 8<<10)
	m := &memberWriter{buf: &c.out, dst: &c.seg[2], h: sha256.New()}
	defer m.release()
	tw := tar.NewWriter(m)
	err = c.walkData(r, declared, func(f *File) error {
		if err := rw.File(f); err != nil {
			return err
		}
		return writeFile(tw, f)
	})
	if err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("apk: data segment: %w", err)
	}
	// The end-of-archive blocks guarantee a flush, so m.zw is set.
	if err := m.flush(); err != nil {
		return nil, err
	}
	if err := m.zw.Close(); err != nil {
		return nil, fmt.Errorf("apk: compressing segment: %w", err)
	}
	var sum [32]byte
	m.h.Sum(sum[:0])

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
	for i := 0; i < 2; i++ {
		if err := compress(m.zw, &c.out, c.seg[i].Bytes()); err != nil {
			return nil, err
		}
	}
	out := make([]byte, 0, c.out.Len()+c.seg[2].Len())
	return append(append(out, c.out.Bytes()...), c.seg[2].Bytes()...), nil
}

// batchSize is the least run of tar stream a memberWriter compresses
// at once.
const batchSize = maxPooledScratch / 2

// memberWriter hashes a tar stream and compresses it into dst as one
// gzip member. It hands the stream on in runs of at least batchSize
// bytes, buffered in buf, and takes its compressor at the first run, so
// that deflate works in long bursts on warm tables instead of between
// every file's signing. A write of batchSize or more goes straight
// through, so buf stays under twice batchSize.
type memberWriter struct {
	buf, dst *bytes.Buffer
	h        hash.Hash
	zw       *gzip.Writer
}

func (m *memberWriter) Write(p []byte) (int, error) {
	if len(p) >= batchSize {
		if err := m.flush(); err != nil {
			return 0, err
		}
		if err := m.emit(p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	m.buf.Write(p)
	if m.buf.Len() >= batchSize {
		if err := m.flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// flush compresses what buf holds.
func (m *memberWriter) flush() error {
	err := m.emit(m.buf.Bytes())
	m.buf.Reset()
	return err
}

func (m *memberWriter) emit(p []byte) error {
	if m.zw == nil {
		m.zw = compressors.Get().(*gzip.Writer)
		m.zw.Reset(m.dst)
	}
	m.h.Write(p)
	if _, err := m.zw.Write(p); err != nil {
		return fmt.Errorf("apk: compressing segment: %w", err)
	}
	return nil
}

// release returns the compressor, if one was taken, to the pool.
func (m *memberWriter) release() {
	if m.zw != nil {
		compressors.Put(m.zw)
	}
}

// RawControlSegment extracts the exact control segment bytes from an
// encoded package, for signature verification without a full decode.
// Only the signature and control members are decompressed — the (much
// larger) data segment is not touched, so the integrity check costs
// roughly the same regardless of package size.
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
	in := io.TeeReader(&c.zr, h)
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

// writeDataSegment tars the files in path order.
func writeDataSegment(w io.Writer, files []File) error {
	tw := tar.NewWriter(w)
	sorted := append([]File(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for i := range sorted {
		if err := writeFile(tw, &sorted[i]); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("apk: data segment: %w", err)
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
