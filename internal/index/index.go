// Package index implements the signed repository metadata index
// (APKINDEX in Alpine terms). The index lists every package with its
// size and content hash — the defense against the endless-data and
// extraneous-dependencies attacks (§5.4) — and carries a sequence number
// so verifiers and TSR can detect replay (stale index) and freeze
// attacks.
package index

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tsr/internal/keys"
)

// Error sentinels.
var (
	ErrFormat   = errors.New("index: malformed index")
	ErrNotFound = errors.New("index: package not found")
)

// Entry describes one package in the repository.
type Entry struct {
	Name    string
	Version string
	// Size is the encoded package size in bytes, as served on the wire.
	Size int64
	// Hash is the SHA-256 of the encoded package bytes.
	Hash [32]byte
	// Depends lists dependency package names.
	Depends []string
}

// ETag renders the entry's content hash as the strong HTTP ETag of
// the package it describes — one definition shared by the origin and
// edge tiers, so conditional requests agree across them.
func (e Entry) ETag() string {
	return `"` + hex.EncodeToString(e.Hash[:]) + `"`
}

// Matches reports whether raw is exactly the package the entry
// describes: its size first (cheap), then its SHA-256.
func (e Entry) Matches(raw []byte) bool {
	return int64(len(raw)) == e.Size && sha256.Sum256(raw) == e.Hash
}

// Index is the repository metadata index.
type Index struct {
	// Origin names the repository that generated the index (e.g.
	// "alpine-main" or a TSR repository identifier).
	Origin string
	// Sequence is a monotonically increasing generation number; each
	// repository update increments it. It is the freshness measure used
	// for replay/freeze detection.
	Sequence uint64
	// Entries is kept sorted by package name.
	Entries []Entry
}

// Lookup returns the entry for the named package.
func (ix *Index) Lookup(name string) (Entry, error) {
	i := sort.Search(len(ix.Entries), func(i int) bool { return ix.Entries[i].Name >= name })
	if i < len(ix.Entries) && ix.Entries[i].Name == name {
		return ix.Entries[i], nil
	}
	return Entry{}, fmt.Errorf("%w: %q", ErrNotFound, name)
}

// Add inserts or replaces an entry, keeping Entries sorted.
func (ix *Index) Add(e Entry) {
	i := sort.Search(len(ix.Entries), func(i int) bool { return ix.Entries[i].Name >= e.Name })
	if i < len(ix.Entries) && ix.Entries[i].Name == e.Name {
		ix.Entries[i] = e
		return
	}
	ix.Entries = append(ix.Entries, Entry{})
	copy(ix.Entries[i+1:], ix.Entries[i:])
	ix.Entries[i] = e
}

// Remove deletes the entry for the named package, if present.
func (ix *Index) Remove(name string) {
	i := sort.Search(len(ix.Entries), func(i int) bool { return ix.Entries[i].Name >= name })
	if i < len(ix.Entries) && ix.Entries[i].Name == name {
		ix.Entries = append(ix.Entries[:i], ix.Entries[i+1:]...)
	}
}

// Clone returns a copy whose Entries slice is independent of the
// original (entry Depends slices are shared; they are never mutated in
// place).
func (ix *Index) Clone() *Index {
	return &Index{
		Origin:   ix.Origin,
		Sequence: ix.Sequence,
		Entries:  append([]Entry(nil), ix.Entries...),
	}
}

// Names returns all package names in order.
func (ix *Index) Names() []string {
	out := make([]string, len(ix.Entries))
	for i, e := range ix.Entries {
		out[i] = e.Name
	}
	return out
}

// TotalSize returns the sum of all package sizes — the "repository size"
// measure of Figure 9's 3.6% overhead claim.
func (ix *Index) TotalSize() int64 {
	var n int64
	for _, e := range ix.Entries {
		n += e.Size
	}
	return n
}

// Encode renders the index as deterministic text:
//
//	origin = <origin>
//	sequence = <n>
//	package = <name> <version> <size> <hex hash> [dep,dep,...]
//
// Dependencies that join to the empty string are written as "-".
// Encode sizes the text first and writes it into one buffer of that
// size.
func (ix *Index) Encode() []byte {
	entries := ix.Entries
	if !entriesSorted(entries) {
		entries = append([]Entry(nil), entries...)
		sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	}
	var num [20]byte // the longest uint64 or int64 in decimal
	n := len("origin = \nsequence = \n") + len(ix.Origin) + len(strconv.AppendUint(num[:0], ix.Sequence, 10))
	for i := range entries {
		e := &entries[i]
		n += len("package =     \n") + len(e.Name) + len(e.Version) + len(strconv.AppendInt(num[:0], e.Size, 10)) +
			2*len(e.Hash) + max(joinedLen(e.Depends), 1)
	}
	b := make([]byte, 0, n)
	b = append(b, "origin = "...)
	b = append(b, ix.Origin...)
	b = append(b, "\nsequence = "...)
	b = strconv.AppendUint(b, ix.Sequence, 10)
	for i := range entries {
		e := &entries[i]
		b = append(b, "\npackage = "...)
		b = append(b, e.Name...)
		b = append(b, ' ')
		b = append(b, e.Version...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, e.Size, 10)
		b = append(b, ' ')
		b = hex.AppendEncode(b, e.Hash[:])
		b = append(b, ' ')
		if joinedLen(e.Depends) == 0 {
			b = append(b, '-')
		}
		for j, d := range e.Depends {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, d...)
		}
	}
	return append(b, '\n')
}

// entriesSorted reports whether entries are in name order. sort.Slice
// leaves such a slice as it is, equal names included, so Encode writes
// it without sorting a copy.
func entriesSorted(entries []Entry) bool {
	for i := 1; i < len(entries); i++ {
		if entries[i].Name < entries[i-1].Name {
			return false
		}
	}
	return true
}

// joinedLen is len(strings.Join(deps, ",")).
func joinedLen(deps []string) int {
	n := max(len(deps)-1, 0)
	for _, d := range deps {
		n += len(d)
	}
	return n
}

// cutKV splits a "key = value" line. An empty field encodes as
// "key = " whose trailing space does not survive the per-line
// TrimSpace, so the bare "key =" form is accepted as an empty value —
// without it, canonical encodings would not re-decode.
func cutKV(line string) (key, value string, ok bool) {
	if k, v, ok := strings.Cut(line, " = "); ok {
		return k, v, true
	}
	if k, found := strings.CutSuffix(line, " ="); found {
		return k, "", true
	}
	return line, "", false
}

// Decode parses an encoded index.
func Decode(raw []byte) (*Index, error) {
	ix := &Index{}
	seenOrigin, seenSeq := false, false
	for lineno, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, value, ok := cutKV(line)
		if !ok {
			return nil, fmt.Errorf("%w: line %d: %q", ErrFormat, lineno+1, line)
		}
		switch key {
		case "origin":
			ix.Origin = value
			seenOrigin = true
		case "sequence":
			seq, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: bad sequence %q", ErrFormat, lineno+1, value)
			}
			ix.Sequence = seq
			seenSeq = true
		case "package":
			e, err := parseEntry(value)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, lineno+1, err)
			}
			ix.Entries = append(ix.Entries, e)
		default:
			return nil, fmt.Errorf("%w: line %d: unknown key %q", ErrFormat, lineno+1, key)
		}
	}
	if !seenOrigin || !seenSeq {
		return nil, fmt.Errorf("%w: missing origin or sequence", ErrFormat)
	}
	sort.Slice(ix.Entries, func(i, j int) bool { return ix.Entries[i].Name < ix.Entries[j].Name })
	return ix, nil
}

func parseEntry(s string) (Entry, error) {
	fields := strings.Fields(s)
	if len(fields) != 5 {
		return Entry{}, fmt.Errorf("want 5 fields, got %d", len(fields))
	}
	size, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return Entry{}, fmt.Errorf("bad size %q", fields[2])
	}
	hash, err := hex.DecodeString(fields[3])
	if err != nil || len(hash) != 32 {
		return Entry{}, fmt.Errorf("bad hash %q", fields[3])
	}
	e := Entry{Name: fields[0], Version: fields[1], Size: size}
	copy(e.Hash[:], hash)
	if fields[4] != "-" {
		e.Depends = strings.Split(fields[4], ",")
	}
	return e, nil
}

// Signed is an index together with its signature, as served by
// repositories and mirrors.
type Signed struct {
	// Raw is the encoded index text the signature covers.
	Raw []byte
	// KeyName names the signing key.
	KeyName string
	// Sig is the RSA signature over Raw.
	Sig []byte
}

// Sign encodes and signs an index.
func Sign(ix *Index, pair *keys.Pair) (*Signed, error) {
	raw := ix.Encode()
	sig, err := pair.Sign(raw)
	if err != nil {
		return nil, err
	}
	return &Signed{Raw: raw, KeyName: pair.Name, Sig: sig}, nil
}

// VerifySignature checks the signature against the ring without
// decoding the index body. The embedded key name is a hint only — if
// the ring has no key of that name (ring keys may be labeled locally,
// e.g. keys parsed from a security policy), every ring key is tried.
func (s *Signed) VerifySignature(ring *keys.Ring) error {
	if err := ring.VerifyBy(s.KeyName, s.Raw, s.Sig); err != nil {
		if !errors.Is(err, keys.ErrUnknownKey) {
			return err
		}
		if _, err := ring.VerifyAny(s.Raw, s.Sig); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks the signature against the ring and returns the decoded
// index.
func (s *Signed) Verify(ring *keys.Ring) (*Index, error) {
	if err := s.VerifySignature(ring); err != nil {
		return nil, err
	}
	return Decode(s.Raw)
}

// Digest returns the SHA-256 of the signed representation, used for
// quorum vote matching: two mirrors agree iff their signed indexes hash
// identically.
func (s *Signed) Digest() [32]byte {
	h := sha256.New()
	h.Write(s.Raw)
	h.Write([]byte(s.KeyName))
	h.Write(s.Sig)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ETag returns the strong HTTP entity tag of the signed index: the
// quoted hex Digest. Two signed indexes carry the same ETag iff their
// raw bytes, key name, and signature all match, so If-None-Match
// revalidation against it is exactly as strong as re-downloading.
func (s *Signed) ETag() string {
	d := s.Digest()
	return `"` + hex.EncodeToString(d[:]) + `"`
}

// Clone returns a deep copy of the signed index.
func (s *Signed) Clone() *Signed {
	return &Signed{
		Raw:     append([]byte(nil), s.Raw...),
		KeyName: s.KeyName,
		Sig:     append([]byte(nil), s.Sig...),
	}
}

// Size returns the wire size of the signed index, used by the netsim
// transfer model.
func (s *Signed) Size() int64 {
	return int64(len(s.Raw) + len(s.KeyName) + len(s.Sig))
}

// Diff reports the package names that were added, changed (different
// version or hash), or removed going from old to new. TSR uses it to
// decide which packages must be re-sanitized after a mirror update
// (§5.5: "TSR detects the outdated software packages each time TSR reads
// the new metadata index").
func Diff(old, new *Index) (added, changed, removed []string) {
	oldByName := make(map[string]Entry, len(old.Entries))
	for _, e := range old.Entries {
		oldByName[e.Name] = e
	}
	for _, e := range new.Entries {
		prev, ok := oldByName[e.Name]
		switch {
		case !ok:
			added = append(added, e.Name)
		case prev.Version != e.Version || prev.Hash != e.Hash:
			changed = append(changed, e.Name)
		}
		delete(oldByName, e.Name)
	}
	for name := range oldByName {
		removed = append(removed, name)
	}
	sort.Strings(added)
	sort.Strings(changed)
	sort.Strings(removed)
	return added, changed, removed
}
