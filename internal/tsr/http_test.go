package tsr

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"tsr/internal/store"
)

// TestETagMatch covers RFC 9110 §13.1.2 If-None-Match semantics: `*`,
// comma-separated lists, weak-prefix-insensitive comparison, and opaque
// tags containing commas (legal etagc characters a naive comma split
// would mangle).
func TestETagMatch(t *testing.T) {
	const etag = `"abc123"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{`"abc123"`, true},
		{`  "abc123"  `, true},
		{"*", true},
		{"  *  ", true},
		{`W/"abc123"`, true}, // weak comparison ignores the prefix
		{`"zzz", "abc123"`, true},
		{`"zzz","abc123"`, true},
		{`"zzz" , W/"abc123" , "yyy"`, true},
		{`"zzz", "yyy"`, false},
		{`"abc1234"`, false},
		{`abc123`, false},   // unquoted token is a different opaque tag
		{`"abc123`, false},  // unterminated quote: one malformed token
		{`"*"`, false},      // a quoted asterisk is a tag, not the wildcard
		{`"zzz", *`, false}, // `*` is only valid as the entire field value
		{`W/"zzz","abc123"`, true},
	}
	for _, tc := range cases {
		if got := ETagMatch(tc.header, etag); got != tc.want {
			t.Errorf("ETagMatch(%q, %q) = %v, want %v", tc.header, etag, got, tc.want)
		}
	}

	// Tags containing commas survive list splitting.
	const commaTag = `"a,b,c"`
	if !ETagMatch(`"x,y", "a,b,c"`, commaTag) {
		t.Errorf("comma-bearing tag not matched in a list")
	}
	if ETagMatch(`"a", "b,c"`, commaTag) {
		t.Errorf("split fragments of a comma-bearing tag must not match")
	}
}

// TestFetchPackageBodyBound: the client is a transport, so what bounds
// a body it reads is the Content-Length the server claims, checked
// against the path's cap: maxPackageBytes for a package, the requested
// length for a range, maxManifestBodyBytes for a chunk manifest and
// maxIndexWireBytes for an index. On each path a body that matches its
// length arrives whole; a short one is an error; a claim above the cap
// is refused before a byte is read, and no claim presizes more than
// maxBodyPresize; a body without a length, or sent gzip-encoded,
// arrives whole, and a corrupt gzip body is an error that names the
// client once.
func TestFetchPackageBodyBound(t *testing.T) {
	// Compressible, so that its gzip form fits a range's cap too.
	body := bytes.Repeat([]byte("sanitized package bytes "), 8)
	n := int64(len(body))
	manifest := EncodeChunkManifest("p", store.BuildManifest(body))
	type path struct {
		name  string
		body  []byte
		cap   int64
		fetch func(c *Client) ([]byte, error)
		serve func(w http.ResponseWriter) // headers beyond the length
	}
	paths := []path{
		{"package", body, maxPackageBytes, func(c *Client) ([]byte, error) { return c.FetchPackage("p") }, func(http.ResponseWriter) {}},
		{"range", body, n, func(c *Client) ([]byte, error) { return c.FetchPackageRange("p", 0, n) }, func(w http.ResponseWriter) {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-%d/%d", n-1, n))
			w.WriteHeader(http.StatusPartialContent)
		}},
		{"manifest", manifest, maxManifestBodyBytes, func(c *Client) ([]byte, error) {
			m, err := c.FetchChunkManifest("p")
			if err != nil {
				return nil, err
			}
			return EncodeChunkManifest("p", m), nil
		}, func(http.ResponseWriter) {}},
		{"index", body, maxIndexWireBytes, func(c *Client) ([]byte, error) {
			s, err := c.FetchIndex()
			if err != nil {
				return nil, err
			}
			return s.Raw, nil
		}, func(w http.ResponseWriter) {
			w.Header().Set(headerKeyName, "k")
			w.Header().Set(headerSignature, "c2ln")
		}},
	}
	const absent = -1
	for _, tc := range []struct {
		name  string
		claim func(size, cap int64) int64 // the Content-Length sent, or absent
		gzip  bool
	}{
		{"matching length", func(size, _ int64) int64 { return size }, false},
		{"short body", func(size, _ int64) int64 { return size + 10 }, false},
		{"claim at the cap, short body", func(_, cap int64) int64 { return cap }, false},
		{"claim of 1<<40", func(int64, int64) int64 { return 1 << 40 }, false},
		{"claim above the cap", func(_, cap int64) int64 { return cap + 1 }, false},
		{"absent length", func(int64, int64) int64 { return absent }, false},
		{"gzip body", func(int64, int64) int64 { return absent }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range paths {
				t.Run(p.name, func(t *testing.T) {
					size := int64(len(p.body))
					claim := tc.claim(size, p.cap)
					var corrupt atomic.Bool // serve a gzip body that does not decode
					srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						wire := p.body
						if corrupt.Load() {
							wire = []byte("not gzip")
							w.Header().Set("Content-Encoding", "gzip")
						} else if tc.gzip {
							var buf bytes.Buffer
							zw := gzip.NewWriter(&buf)
							zw.Write(p.body)
							zw.Close()
							wire = buf.Bytes()
							w.Header().Set("Content-Encoding", "gzip")
						}
						if claim != absent {
							w.Header().Set("Content-Length", strconv.FormatInt(claim, 10))
						}
						p.serve(w)
						if claim == absent {
							w.(http.Flusher).Flush() // no length: chunked
						}
						w.Write(wire)
					}))
					defer srv.Close()
					c := &Client{BaseURL: srv.URL, RepoID: "r", HTTPClient: srv.Client()}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					raw, err := p.fetch(c)
					runtime.ReadMemStats(&after)
					if ok := claim == size || claim == absent; ok && (err != nil || !bytes.Equal(raw, p.body)) {
						t.Fatalf("got %q, %v", raw, err)
					} else if !ok && err == nil {
						t.Fatalf("accepted a %d-byte body claiming %d bytes", size, claim)
					}
					if a := after.TotalAlloc - before.TotalAlloc; a > maxBodyPresize+1<<20 {
						t.Fatalf("allocated %d bytes for a %d-byte body claiming %d", a, size, claim)
					}
					if claim > p.cap {
						if !strings.Contains(fmt.Sprint(err), "exceeds") {
							t.Fatalf("err = %v, want the claim refused against the cap", err)
						}
						if read := c.WireStats().TotalBytes(); read != 0 {
							t.Fatalf("read %d body bytes before refusing the claim", read)
						}
					}
					if tc.gzip {
						corrupt.Store(true)
						if _, err := p.fetch(c); err == nil || strings.Count(err.Error(), "tsr client: ") != 1 {
							t.Fatalf("corrupt gzip body: err = %v, want one that says \"tsr client: \" once", err)
						}
					}
				})
			}
		})
	}
}
