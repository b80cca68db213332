package tsr

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
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
// a package read is the Content-Length the server claims, checked
// against one cap. A body that matches its length arrives whole; a
// short one is an error; a huge claim is refused before reading or
// presizes no more than maxPackagePresize, never the claimed size.
func TestFetchPackageBodyBound(t *testing.T) {
	body := []byte("sanitized package bytes")
	n := int64(len(body))
	for _, tc := range []struct {
		name          string
		contentLength int64
		ok            bool
	}{
		{"matching length", n, true},
		{"short body", n + 10, false},
		{"claim at the cap, short body", maxPackageBytes, false},
		{"claim of 1<<40", 1 << 40, false},
		{"claim above the cap", maxPackageBytes + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Length", strconv.FormatInt(tc.contentLength, 10))
				w.Write(body)
			}))
			defer srv.Close()
			c := &Client{BaseURL: srv.URL, RepoID: "r", HTTPClient: srv.Client()}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			raw, err := c.FetchPackage("p")
			runtime.ReadMemStats(&after)
			if tc.ok && (err != nil || string(raw) != string(body)) {
				t.Fatalf("got %q, %v", raw, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("accepted a %d-byte body claiming %d bytes", n, tc.contentLength)
			}
			if a := after.TotalAlloc - before.TotalAlloc; a > maxPackagePresize+1<<20 {
				t.Fatalf("allocated %d bytes for a %d-byte body claiming %d", a, n, tc.contentLength)
			}
			if tc.contentLength > maxPackageBytes && !strings.Contains(fmt.Sprint(err), "exceeds") {
				t.Fatalf("err = %v, want the claim refused against the cap", err)
			}
		})
	}
}
