package edge

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"tsr/internal/index"
	"tsr/internal/tsr"
)

// The index routes serve each generation's memoized wire forms. These
// tests pin what the memo must never change: the bytes served, and the
// ETag that names them.

// sliceWriter is an http.ResponseWriter that keeps the last slice the
// handler wrote, so two responses can be told apart by identity, not
// only by content.
type sliceWriter struct {
	h    http.Header
	code int
	body []byte
}

func newSliceWriter() *sliceWriter { return &sliceWriter{h: make(http.Header)} }

func (s *sliceWriter) Header() http.Header  { return s.h }
func (s *sliceWriter) WriteHeader(code int) { s.code = code }
func (s *sliceWriter) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	s.body = b
	return len(b), nil
}

func serveSlice(h http.Handler, target string, gz bool) *sliceWriter {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	sw := newSliceWriter()
	h.ServeHTTP(sw, req)
	return sw
}

// plain returns the written body, gunzipped when it was sent gzip'd.
func (s *sliceWriter) plain() ([]byte, error) {
	if s.h.Get("Content-Encoding") != "gzip" {
		return s.body, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(s.body))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func mustPlain(t *testing.T, s *sliceWriter) []byte {
	t.Helper()
	raw, err := s.plain()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestMemoizedFormsMatchTheGeneration: across more generations than the
// delta window holds, on both tiers, the index body is Signed.Raw and
// every retained base's delta body is ComputeDelta(...).Encode() byte
// for byte, gzip'd or not, and the signature header decodes to
// Signed.Sig.
func TestMemoizedFormsMatchTheGeneration(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name string
		h    http.Handler
		view tsr.ReadView
	}{
		{"origin", tsr.Handler(w.svc), w.tenant},
		{"edge", Handler(map[string]*Replica{w.tenant.ID: rep}, "memo-edge"), rep},
	}
	prefix := "/repos/" + w.tenant.ID + "/index"
	for gen := 0; gen < index.HistoryWindow+3; gen++ {
		if gen > 0 {
			w.update(t, "app", fmt.Sprintf("%d.0-r0", gen+1))
			if err := rep.SyncCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range tiers {
			p, err := tr.view.Current()
			if err != nil {
				t.Fatal(err)
			}
			for _, gz := range []bool{true, false} {
				sw := serveSlice(tr.h, prefix, gz)
				if sw.code != http.StatusOK || sw.h.Get("ETag") != p.ETag {
					t.Fatalf("%s gen %d: index %d, ETag %s, want 200 %s", tr.name, gen, sw.code, sw.h.Get("ETag"), p.ETag)
				}
				if !bytes.Equal(mustPlain(t, sw), p.Signed.Raw) {
					t.Fatalf("%s gen %d (gzip %v): index body is not Signed.Raw", tr.name, gen, gz)
				}
				sig, err := base64.StdEncoding.DecodeString(sw.h.Get("X-Tsr-Signature"))
				if err != nil || !bytes.Equal(sig, p.Signed.Sig) {
					t.Fatalf("%s gen %d: signature header does not decode to Signed.Sig (%v)", tr.name, gen, err)
				}
				for _, base := range p.History[:len(p.History)-1] {
					d, err := index.ComputeDelta(base.ETag, base.Index, p.Signed, p.Index)
					if err != nil {
						t.Fatal(err)
					}
					sw := serveSlice(tr.h, prefix+"/delta?since="+url.QueryEscape(base.ETag), gz)
					if sw.code != http.StatusOK || sw.h.Get("ETag") != p.ETag {
						t.Fatalf("%s gen %d: delta %d, ETag %s, want 200 %s", tr.name, gen, sw.code, sw.h.Get("ETag"), p.ETag)
					}
					if !bytes.Equal(mustPlain(t, sw), d.Encode()) {
						t.Fatalf("%s gen %d (gzip %v): delta from %s is not ComputeDelta(...).Encode()", tr.name, gen, gz, base.ETag)
					}
				}
			}
		}
	}
}

// TestMemoUnderConcurrentPublishes runs 8 readers on /index and
// /index/delta of both tiers across 20 publishes (go test -race): every
// index body hashes to the ETag it is sent under, every delta names
// that ETag as its target, and two responses on one generation carry
// the very same memoized slice.
func TestMemoUnderConcurrentPublishes(t *testing.T) {
	w := newEdgeWorld(t)
	rep := &Replica{RepoID: w.tenant.ID, Origin: w.tenant, TrustRing: w.trust()}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	handlers := []http.Handler{tsr.Handler(w.svc), Handler(map[string]*Replica{w.tenant.ID: rep}, "memo-edge")}
	prefix := "/repos/" + w.tenant.ID + "/index"

	const readers, publishes = 8, 20
	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := handlers[i%len(handlers)]
			gz := i%4 < 2
			check := func() error {
				a := serveSlice(h, prefix, gz)
				b := serveSlice(h, prefix, gz)
				for _, sw := range []*sliceWriter{a, b} {
					sig, err := base64.StdEncoding.DecodeString(sw.h.Get("X-Tsr-Signature"))
					if err != nil {
						return err
					}
					raw, err := sw.plain()
					if err != nil {
						return err
					}
					signed := index.Signed{Raw: raw, KeyName: sw.h.Get("X-Tsr-Key-Name"), Sig: sig}
					if got := signed.ETag(); got != sw.h.Get("ETag") {
						return fmt.Errorf("index body hashes to %s, sent under %s", got, sw.h.Get("ETag"))
					}
				}
				if a.h.Get("ETag") == b.h.Get("ETag") && &a.body[0] != &b.body[0] {
					return fmt.Errorf("two index responses on generation %s sent different slices", a.h.Get("ETag"))
				}
				// A delta from the generation just read: 304 while it is
				// current, 200 to whatever is current now, or 404 once
				// the window has moved past it.
				since := a.h.Get("ETag")
				d := serveSlice(h, prefix+"/delta?since="+url.QueryEscape(since), gz)
				switch d.code {
				case http.StatusNotModified, http.StatusNotFound:
				case http.StatusOK:
					raw, err := d.plain()
					if err != nil {
						return err
					}
					delta, err := index.DecodeDelta(raw)
					if err != nil {
						return err
					}
					if delta.FromETag != since || delta.ToETag != d.h.Get("ETag") {
						return fmt.Errorf("delta %s -> %s sent under ETag %s for since=%s", delta.FromETag, delta.ToETag, d.h.Get("ETag"), since)
					}
				default:
					return fmt.Errorf("delta since a just-read generation: HTTP %d", d.code)
				}
				return nil
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := check(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	for gen := 0; gen < publishes; gen++ {
		w.update(t, "app", fmt.Sprintf("%d.0-r0", gen+2))
		if err := rep.SyncCtx(context.Background()); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
