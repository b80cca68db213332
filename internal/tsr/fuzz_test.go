package tsr

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
