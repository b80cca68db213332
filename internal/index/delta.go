package index

import (
	"encoding/base64"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Delta sync sentinels.
var (
	// ErrDeltaUnchanged: the requested base generation IS the current
	// one; there is nothing to transfer (HTTP maps this to 304).
	ErrDeltaUnchanged = errors.New("index: delta: already up to date")
	// ErrNoDelta: the server cannot produce a delta from the requested
	// base (older than the retained history, or unknown). The caller
	// falls back to a full index fetch.
	ErrNoDelta = errors.New("index: no delta available for that base (full fetch required)")
	// ErrDeltaMismatch: applying the delta did not reproduce the signed
	// index it advertises — the delta is corrupt or tampered.
	ErrDeltaMismatch = errors.New("index: delta does not reproduce the advertised signed index")
)

// Delta describes the change from one published index generation to a
// newer one: the entries to insert or replace, the names to drop, and —
// because index encoding is deterministic — the origin's signature over
// the complete NEW index. A receiver that holds the base generation can
// reconstruct the exact signed index byte-for-byte by applying the
// delta and re-encoding, then prove it did so correctly by comparing
// the result's ETag against ToETag. The trust model is unchanged: the
// signature is the origin's; a delta can be served by any untrusted
// host and verified end-to-end.
type Delta struct {
	// FromETag identifies the base signed-index generation the delta
	// applies to; ToETag the resulting one.
	FromETag string
	ToETag   string
	// Sequence is the new index's sequence number.
	Sequence uint64
	// Upsert lists added or changed entries; Remove lists dropped
	// package names.
	Upsert []Entry
	Remove []string
	// KeyName and Sig are the origin's signature over the encoded NEW
	// index (exactly what Signed carries for a full fetch).
	KeyName string
	Sig     []byte
}

// ComputeDelta builds the delta that turns the old index (published
// under fromETag) into the index carried by the signed current
// generation. cur must be the decoded form of curSig.Raw.
func ComputeDelta(fromETag string, old *Index, curSig *Signed, cur *Index) (*Delta, error) {
	if old == nil || cur == nil || curSig == nil {
		return nil, fmt.Errorf("%w: missing generation", ErrNoDelta)
	}
	added, changed, removed := Diff(old, cur)
	d := &Delta{
		FromETag: fromETag,
		ToETag:   curSig.ETag(),
		Sequence: cur.Sequence,
		Remove:   removed,
		KeyName:  curSig.KeyName,
		Sig:      append([]byte(nil), curSig.Sig...),
	}
	for _, name := range added {
		e, err := cur.Lookup(name)
		if err != nil {
			return nil, err
		}
		d.Upsert = append(d.Upsert, e)
	}
	for _, name := range changed {
		e, err := cur.Lookup(name)
		if err != nil {
			return nil, err
		}
		d.Upsert = append(d.Upsert, e)
	}
	sort.Slice(d.Upsert, func(i, j int) bool { return d.Upsert[i].Name < d.Upsert[j].Name })
	return d, nil
}

// Apply reconstructs the new generation from the base index: it clones
// the base, applies the upserts and removals, re-encodes (encoding is
// deterministic), and wraps the bytes with the delta's signature. Its
// ETag — covering raw bytes, key name, and signature — must equal
// ToETag, or ErrDeltaMismatch is returned. That is a transport-integrity
// check, not a trust check: ToETag arrives in the same untrusted delta,
// so whoever can alter the upserts can alter ToETag to match. It catches
// a corrupted or mis-based delta; a receiver must still verify the
// signature on the result before trusting it.
func (d *Delta) Apply(base *Index) (*Signed, *Index, error) {
	if base == nil {
		return nil, nil, fmt.Errorf("%w: nil base", ErrDeltaMismatch)
	}
	next := base.Clone()
	for _, e := range d.Upsert {
		next.Add(e)
	}
	for _, name := range d.Remove {
		next.Remove(name)
	}
	next.Sequence = d.Sequence
	signed := &Signed{Raw: next.Encode(), KeyName: d.KeyName, Sig: append([]byte(nil), d.Sig...)}
	if signed.ETag() != d.ToETag {
		return nil, nil, fmt.Errorf("%w: got %s, want %s", ErrDeltaMismatch, signed.ETag(), d.ToETag)
	}
	return signed, next, nil
}

// EncodeDelta renders the delta as deterministic text, mirroring the
// index format:
//
//	from = <etag>
//	to = <etag>
//	sequence = <n>
//	key = <key name>
//	signature = <base64>
//	upsert = <name> <version> <size> <hex hash> [dep,dep,...]
//	remove = <name>
func (d *Delta) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "from = %s\n", d.FromETag)
	fmt.Fprintf(&b, "to = %s\n", d.ToETag)
	fmt.Fprintf(&b, "sequence = %d\n", d.Sequence)
	fmt.Fprintf(&b, "key = %s\n", d.KeyName)
	fmt.Fprintf(&b, "signature = %s\n", base64.StdEncoding.EncodeToString(d.Sig))
	for _, e := range d.Upsert {
		deps := strings.Join(e.Depends, ",")
		if deps == "" {
			deps = "-"
		}
		fmt.Fprintf(&b, "upsert = %s %s %d %x %s\n", e.Name, e.Version, e.Size, e.Hash, deps)
	}
	for _, name := range d.Remove {
		fmt.Fprintf(&b, "remove = %s\n", name)
	}
	return []byte(b.String())
}

// DecodeDelta parses an encoded delta.
func DecodeDelta(raw []byte) (*Delta, error) {
	d := &Delta{}
	seenFrom, seenTo, seenSeq, seenSig := false, false, false, false
	for lineno, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, value, ok := cutKV(line)
		if !ok {
			return nil, fmt.Errorf("%w: delta line %d: %q", ErrFormat, lineno+1, line)
		}
		switch key {
		case "from":
			d.FromETag = value
			seenFrom = true
		case "to":
			d.ToETag = value
			seenTo = true
		case "sequence":
			seq, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: delta line %d: bad sequence %q", ErrFormat, lineno+1, value)
			}
			d.Sequence = seq
			seenSeq = true
		case "key":
			d.KeyName = value
		case "signature":
			sig, err := base64.StdEncoding.DecodeString(value)
			if err != nil {
				return nil, fmt.Errorf("%w: delta line %d: bad signature", ErrFormat, lineno+1)
			}
			d.Sig = sig
			seenSig = true
		case "upsert":
			e, err := parseEntry(value)
			if err != nil {
				return nil, fmt.Errorf("%w: delta line %d: %v", ErrFormat, lineno+1, err)
			}
			d.Upsert = append(d.Upsert, e)
		case "remove":
			d.Remove = append(d.Remove, value)
		default:
			return nil, fmt.Errorf("%w: delta line %d: unknown key %q", ErrFormat, lineno+1, key)
		}
	}
	if !seenFrom || !seenTo || !seenSeq || !seenSig {
		return nil, fmt.Errorf("%w: delta missing from/to/sequence/signature", ErrFormat)
	}
	return d, nil
}
