package tsr

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"tsr/internal/store"
)

// wellFormedTag reports whether etag is a plain RFC 9110 entity-tag: a
// quoted string with no inner quotes (the shape every ETag in this
// codebase has — quoted hex). The fuzz properties below only bind for
// such tags; arbitrary etag arguments still must not panic.
func wellFormedTag(etag string) bool {
	return len(etag) >= 2 &&
		strings.HasPrefix(etag, `"`) && strings.HasSuffix(etag, `"`) &&
		!strings.Contains(etag[1:len(etag)-1], `"`)
}

// FuzzETagMatch asserts the If-None-Match tokenizer's contract on
// arbitrary header bytes: no panic, `*` matches everything, a
// well-formed tag always matches itself (strongly, weakly, and at the
// head of any list), and a match is never invented — a non-wildcard
// header can only match a tag it literally contains.
func FuzzETagMatch(f *testing.F) {
	f.Add(`"abc"`, `"abc"`)
	f.Add(`W/"abc"`, `"abc"`)
	f.Add(`"a", "b", "c"`, `"b"`)
	f.Add(`*`, `"anything"`)
	f.Add(`"comma,inside", "plain"`, `"plain"`)
	f.Add(`"unterminated`, `"x"`)
	f.Add(``, ``)
	f.Add(`W/`, `""`)

	f.Fuzz(func(t *testing.T, header, etag string) {
		got := ETagMatch(header, etag)

		if strings.TrimSpace(header) == "*" && !got {
			t.Fatalf("ETagMatch(%q, %q) = false, * must match any tag", header, etag)
		}
		if got && strings.TrimSpace(header) != "*" && !strings.Contains(header, etag) {
			t.Fatalf("ETagMatch(%q, %q) = true but the header does not contain the tag", header, etag)
		}
		if wellFormedTag(etag) {
			if !ETagMatch(etag, etag) {
				t.Fatalf("ETagMatch(%q, %q) = false, tag must match itself", etag, etag)
			}
			if !ETagMatch("W/"+etag, etag) {
				t.Fatalf(`ETagMatch("W/%s", %q) = false, comparison must be weak`, etag, etag)
			}
			// A well-formed tag at the head of a list matches no matter
			// what garbage follows it.
			if !ETagMatch(etag+", "+header, etag) {
				t.Fatalf("ETagMatch(%q, %q) = false, head-of-list tag must match", etag+", "+header, etag)
			}
		}
	})
}

// FuzzAcceptsGzip asserts the Accept-Encoding reader's contract on
// arbitrary header bytes: no panic, and an explicit gzip;q=0 appended
// to any header refuses gzip, whatever the header listed before it.
func FuzzAcceptsGzip(f *testing.F) {
	for _, row := range acceptsGzipRows {
		f.Add(row.header)
	}
	f.Fuzz(func(t *testing.T, header string) {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header["Accept-Encoding"] = []string{header}
		AcceptsGzip(req)
		req.Header["Accept-Encoding"] = []string{header + ", gzip;q=0"}
		if AcceptsGzip(req) {
			t.Fatalf("AcceptsGzip(%q) = true after an explicit gzip;q=0", header+", gzip;q=0")
		}
	})
}

// manifestErrorCases are malformed chunk manifests DecodeChunkManifest
// must refuse; FuzzDecodeChunkManifest starts from them too.
var manifestErrorCases = []string{
	`not json`,
	`{"package":"p","hash":"zz","size":0,"chunks":[]}`,                                                                          // bad package hash
	`{"package":"p","hash":"` + zeroHash + `","size":-1,"chunks":[]}`,                                                           // negative size
	`{"package":"p","hash":"` + zeroHash + `","size":4,"chunks":[{"offset":1,"size":4,"hash":"` + zeroHash + `"}]}`,             // gap
	`{"package":"p","hash":"` + zeroHash + `","size":4,"chunks":[{"offset":0,"size":0,"hash":"` + zeroHash + `"}]}`,             // empty chunk
	`{"package":"p","hash":"` + zeroHash + `","size":1000000000000,"chunks":[{"offset":0,"size":4,"hash":"` + zeroHash + `"}]}`, // size claim beyond the chunks
	`{"package":"p","hash":"` + zeroHash + `","size":4,"chunks":[{"offset":0,"size":4,"hash":"00"}]}`,                           // bad chunk hash
}

const zeroHash = "0000000000000000000000000000000000000000000000000000000000000000"

func TestDecodeChunkManifestErrors(t *testing.T) {
	for _, src := range manifestErrorCases {
		if _, _, err := DecodeChunkManifest([]byte(src)); err == nil {
			t.Errorf("%s: decoded", src)
		}
	}
}

// FuzzDecodeChunkManifest asserts the chunk-manifest decoder's contract
// on arbitrary bytes (an edge serves manifests to clients, and nothing
// in one is trusted): no panic, a decoded manifest is internally
// consistent and re-encodes to the same manifest, and the memory
// decoding costs is bounded by the input's length — a claimed size
// never buys an allocation (TestDecodeDistrustsSizeTrailer's contract).
func FuzzDecodeChunkManifest(f *testing.F) {
	for _, src := range manifestErrorCases {
		f.Add([]byte(src))
	}
	f.Add(EncodeChunkManifest("p", store.BuildManifest(bytes.Repeat([]byte("chunk me "), 40<<10))))
	f.Add(EncodeChunkManifest("empty", store.BuildManifest(nil)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		name, m, err := DecodeChunkManifest(raw)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 256*uint64(len(raw))+64<<10 {
			t.Fatalf("DecodeChunkManifest allocated %d bytes for %d input bytes", n, len(raw))
		}
		if err != nil {
			return
		}
		if err := m.Valid(); err != nil {
			t.Fatalf("decoded an invalid manifest: %v", err)
		}
		enc := EncodeChunkManifest(name, m)
		name2, m2, err := DecodeChunkManifest(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not re-decode: %v\n%s", err, enc)
		}
		if !bytes.Equal(EncodeChunkManifest(name2, m2), enc) {
			t.Fatalf("manifest encoding is not a fixed point:\n%s", enc)
		}
	})
}

// FuzzParseRange asserts ParseRange's contract on arbitrary Range
// headers: no panic, and for the non-negative sizes a signed index
// entry can carry, an accepted range lies inside the representation
// and is never empty, and an unsatisfiable one is never accepted.
func FuzzParseRange(f *testing.F) {
	for _, tc := range parseRangeCases {
		f.Add(tc.header, tc.size)
	}
	f.Fuzz(func(t *testing.T, header string, size int64) {
		off, length, ok, err := ParseRange(header, size)
		if size < 0 {
			return
		}
		if ok && (off < 0 || length < 1 || off+length > size) {
			t.Fatalf("ParseRange(%q, %d) = (%d, %d, ok): outside the representation", header, size, off, length)
		}
		if ok && errors.Is(err, ErrUnsatisfiable) {
			t.Fatalf("ParseRange(%q, %d) accepted an unsatisfiable range", header, size)
		}
	})
}
