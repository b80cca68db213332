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
// verification and Encode is deterministic. Encode and Decode reuse
// pooled compressors and scratch buffers; a Reset gzip writer emits the
// same bytes as a fresh one, so Encode output is byte-stable whichever
// pooled writer produced it.
package apk

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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

// Clone returns a deep copy, used by the sanitizer which rewrites the
// package without mutating the original.
func (p *Package) Clone() *Package {
	cp := &Package{
		Name:    p.Name,
		Version: p.Version,
		Arch:    p.Arch,
		Depends: append([]string(nil), p.Depends...),
	}
	if p.Scripts != nil {
		cp.Scripts = make(map[string]string, len(p.Scripts))
		for k, v := range p.Scripts {
			cp.Scripts[k] = v
		}
	}
	if p.Signatures != nil {
		cp.Signatures = make(map[string][]byte, len(p.Signatures))
		for k, v := range p.Signatures {
			cp.Signatures[k] = append([]byte(nil), v...)
		}
	}
	cp.Files = make([]File, len(p.Files))
	for i, f := range p.Files {
		nf := File{Path: f.Path, Mode: f.Mode, Content: append([]byte(nil), f.Content...)}
		if f.Xattrs != nil {
			nf.Xattrs = make(map[string][]byte, len(f.Xattrs))
			for k, v := range f.Xattrs {
				nf.Xattrs[k] = append([]byte(nil), v...)
			}
		}
		cp.Files[i] = nf
	}
	return cp
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

// codec is the reusable state of one Encode or Decode: a compressor, a
// decompressor and the scratch the three segments are built in. Pooling
// it leaves the returned bytes (Encode) or file contents (Decode) as the
// only per-call payload allocations.
type codec struct {
	zw  *gzip.Writer
	zr  gzip.Reader
	seg [3]bytes.Buffer // signature, control, data
	out bytes.Buffer
}

// maxPooledScratch caps each scratch buffer a pooled codec keeps.
// Pooled memory is live to the collector, so keeping the buffers of the
// largest packages would raise the heap goal, and the resident size, of
// every process that ever handled one. A larger buffer is dropped; the
// next large call sizes a fresh one up front instead of growing it.
const maxPooledScratch = 256 << 10

var codecs = sync.Pool{New: func() any { return &codec{zw: gzip.NewWriter(nil)} }}

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
	for i := range c.seg {
		c.zw.Reset(&c.out)
		if _, err := c.zw.Write(c.seg[i].Bytes()); err != nil {
			return nil, fmt.Errorf("apk: compressing segment: %w", err)
		}
		if err := c.zw.Close(); err != nil {
			return nil, fmt.Errorf("apk: compressing segment: %w", err)
		}
	}
	return bytes.Clone(c.out.Bytes()), nil
}

// Decode parses an encoded package, verifying the control segment's
// content hash against the data segment.
func Decode(raw []byte) (*Package, error) {
	c := getCodec()
	defer putCodec(c)
	rest, err := c.inflate(raw, 3)
	if err != nil {
		return nil, err
	}
	if rest != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, rest)
	}
	p := &Package{}
	if err := decodeSignatureSegment(c.seg[0].Bytes(), p); err != nil {
		return nil, err
	}
	declaredHash, err := decodeControlSegment(c.seg[1].Bytes(), p)
	if err != nil {
		return nil, err
	}
	data := c.seg[2].Bytes()
	if err := decodeDataSegment(data, p); err != nil {
		return nil, err
	}
	actual := sha256.Sum256(data)
	if actual != declaredHash {
		return nil, fmt.Errorf("%w: declared %x, actual %x", ErrContentHash, declaredHash[:8], actual[:8])
	}
	return p, nil
}

// RawControlSegment extracts the exact control segment bytes from an
// encoded package, for signature verification without a full decode.
// Only the signature and control members are decompressed — the (much
// larger) data segment is not touched, so the integrity check costs
// roughly the same regardless of package size.
func RawControlSegment(raw []byte) ([]byte, error) {
	c := getCodec()
	defer putCodec(c)
	if _, err := c.inflate(raw, 2); err != nil {
		return nil, err
	}
	return bytes.Clone(c.seg[1].Bytes()), nil
}

// inflate decompresses the first n concatenated gzip members of raw
// into c.seg and returns how many bytes of raw follow them.
func (c *codec) inflate(raw []byte, n int) (int, error) {
	r := bytes.NewReader(raw)
	for i := 0; i < n; i++ {
		if err := c.zr.Reset(r); err != nil {
			if err == io.EOF && i > 0 {
				return 0, fmt.Errorf("%w: only %d of %d segments", ErrFormat, i, n)
			}
			return 0, fmt.Errorf("%w: segment %d: %v", ErrFormat, i, err)
		}
		c.zr.Multistream(false)
		if i == 2 {
			c.seg[2].Grow(dataSizeHint(raw, r.Len()))
		}
		if _, err := c.seg[i].ReadFrom(&c.zr); err != nil {
			return 0, fmt.Errorf("%w: segment %d: %v", ErrFormat, i, err)
		}
	}
	return r.Len(), nil
}

// maxPresize caps the data-segment scratch reserved from a size hint; a
// larger segment grows past it as it inflates.
const maxPresize = 16 << 20

// dataSizeHint is the scratch to reserve for the data segment, taken
// from the gzip trailer that ends raw (the segment's size mod 2^32).
// The sender chose that number, so it is consulted only after the first
// two members inflated cleanly, and it is capped by deflate's 1032:1
// limit over the left compressed bytes and by maxPresize.
func dataSizeHint(raw []byte, left int) int {
	if len(raw) < 4 {
		return 0
	}
	size := int64(binary.LittleEndian.Uint32(raw[len(raw)-4:]))
	return int(min(size, 1032*int64(left), maxPresize)) + bytes.MinRead
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
	for _, f := range sorted {
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
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("apk: data segment: %w", err)
	}
	return nil
}

func decodeDataSegment(seg []byte, p *Package) error {
	return eachMember(seg, "data", func(hdr *tar.Header, content []byte) error {
		f := File{
			Path:    "/" + hdr.Name,
			Mode:    uint32(hdr.Mode),
			Content: content,
		}
		for k, v := range hdr.PAXRecords {
			if strings.HasPrefix(k, paxXattrPrefix) {
				if f.Xattrs == nil {
					f.Xattrs = make(map[string][]byte)
				}
				f.Xattrs[strings.TrimPrefix(k, paxXattrPrefix)] = []byte(v)
			}
		}
		p.Files = append(p.Files, f)
		return nil
	})
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
