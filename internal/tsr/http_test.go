package tsr

import (
	"context"
	"crypto/sha256"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tsr/internal/index"
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

// TestFetchPackageVerifiedSizeBound: the client reads a package into a
// buffer sized by the entry, and still rejects a body longer or shorter
// than the entry. An entry with a negative or huge size is an error,
// not a crash or an allocation of the claimed size.
func TestFetchPackageVerifiedSizeBound(t *testing.T) {
	body := []byte("sanitized package bytes")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, RepoID: "r", HTTPClient: srv.Client()}
	n := int64(len(body))
	for _, tc := range []struct {
		size int64
		ok   bool
	}{
		{n, true},
		{n - 1, false}, // server sends one byte more than signed
		{n + 1, false}, // server sends one byte less
		{-2, false},
		{1 << 40, false},
		{math.MaxInt64, false},
	} {
		entry := index.Entry{Name: "p", Size: tc.size, Hash: sha256.Sum256(body[:max(0, min(n, tc.size))])}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		raw, err := c.fetchPackageVerified(context.Background(), "p", entry)
		runtime.ReadMemStats(&after)
		if tc.ok && (err != nil || string(raw) != string(body)) {
			t.Fatalf("size %d: got %q, %v", tc.size, raw, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("size %d: accepted a %d-byte body", tc.size, n)
		}
		if a := after.TotalAlloc - before.TotalAlloc; a > maxPackagePresize+1<<20 {
			t.Fatalf("size %d: allocated %d bytes for a %d-byte body", tc.size, a, n)
		}
	}
}
