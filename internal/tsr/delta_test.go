package tsr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsr/internal/index"
	"tsr/internal/keys"
)

// refreshedWorld returns a deployed, refreshed tenant.
func refreshedWorld(t *testing.T) (*world, *Repo) {
	t.Helper()
	w := newWorld(t, 3)
	w.publish(t,
		pkgWithScript("app", "1.0-r0", ""),
		pkgWithScript("lib", "1.0-r0", ""),
		pkgWithScript("tool", "1.0-r0", ""))
	r := w.deploy(t)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w, r
}

// advance publishes a new version and refreshes, creating a generation.
func advance(t *testing.T, w *world, r *Repo, name, version string) {
	t.Helper()
	w.publish(t, pkgWithScript(name, version, ""))
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
}

func TestFetchIndexDeltaAcrossGenerations(t *testing.T) {
	w, r := refreshedWorld(t)
	base, baseTag, err := r.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseIx, err := index.Decode(base.Raw)
	if err != nil {
		t.Fatal(err)
	}

	// Same generation: nothing to send.
	if _, err := r.FetchIndexDeltaCtx(context.Background(), baseTag); !errors.Is(err, index.ErrDeltaUnchanged) {
		t.Fatalf("err = %v, want ErrDeltaUnchanged", err)
	}

	// Two generations ahead: one delta spans both.
	advance(t, w, r, "app", "1.1-r0")
	advance(t, w, r, "lib", "1.1-r0")
	d, err := r.FetchIndexDeltaCtx(context.Background(), baseTag)
	if err != nil {
		t.Fatal(err)
	}
	signed, ix, err := d.Apply(baseIx)
	if err != nil {
		t.Fatal(err)
	}
	cur, curTag, err := r.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if signed.ETag() != curTag || string(signed.Raw) != string(cur.Raw) {
		t.Fatal("applied delta does not reproduce the current signed index")
	}
	if e, _ := ix.Lookup("lib"); e.Version != "1.1-r0" {
		t.Fatalf("lib = %+v after delta", e)
	}
	// The reconstructed index verifies with the tenant key, like a full
	// fetch.
	if _, err := signed.Verify(keys.NewRing(r.PublicKey())); err != nil {
		t.Fatal(err)
	}

	// A generation pushed out of the retained history: full fetch
	// required.
	for i := 0; i < index.HistoryWindow+1; i++ {
		advance(t, w, r, "tool", fmt.Sprintf("1.%d-r0", i+1))
	}
	if _, err := r.FetchIndexDeltaCtx(context.Background(), baseTag); !errors.Is(err, index.ErrNoDelta) {
		t.Fatalf("err = %v, want ErrNoDelta for an expired base", err)
	}
	// Stats counted the delta reads.
	if s := r.CacheStats(); s.DeltaReads == 0 {
		t.Fatalf("delta_reads = %d", s.DeltaReads)
	}
}

func TestDeltaHTTPEndpoint(t *testing.T) {
	w, r := refreshedWorld(t)
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	_, baseTag, err := r.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	deltaURL := func(since string) string {
		return srv.URL + "/repos/" + r.ID + "/index/delta?since=" + strings.ReplaceAll(since, `"`, "%22")
	}

	// Current base: 304.
	resp, err := srv.Client().Get(deltaURL(baseTag))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("current base status = %d, want 304", resp.StatusCode)
	}

	// Missing since: 400.
	resp, err = srv.Client().Get(srv.URL + "/repos/" + r.ID + "/index/delta")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing since status = %d, want 400", resp.StatusCode)
	}

	// Unknown base: 404 (caller falls back to a full fetch).
	resp, err = srv.Client().Get(deltaURL(`"feedfeed"`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown base status = %d, want 404", resp.StatusCode)
	}

	// One generation ahead: the delta decodes and carries the new tag.
	advance(t, w, r, "app", "1.1-r0")
	resp, err = srv.Client().Get(deltaURL(baseTag))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status = %d, err %v", resp.StatusCode, err)
	}
	d, err := index.DecodeDelta(raw)
	if err != nil {
		t.Fatal(err)
	}
	_, curTag, err := r.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.ToETag != curTag || resp.Header.Get("ETag") != curTag {
		t.Fatalf("delta to = %s, header = %s, want %s", d.ToETag, resp.Header.Get("ETag"), curTag)
	}

	// The client wrapper agrees with the raw endpoint.
	client := &Client{BaseURL: srv.URL, RepoID: r.ID, HTTPClient: srv.Client()}
	if _, err := client.FetchIndexDelta(curTag); !errors.Is(err, index.ErrDeltaUnchanged) {
		t.Fatalf("client err = %v, want ErrDeltaUnchanged", err)
	}
	if _, err := client.FetchIndexDelta(`"feedfeed"`); !errors.Is(err, index.ErrNoDelta) {
		t.Fatalf("client err = %v, want ErrNoDelta", err)
	}
	cd, err := client.FetchIndexDelta(baseTag)
	if err != nil {
		t.Fatal(err)
	}
	if cd.ToETag != curTag {
		t.Fatalf("client delta to = %s, want %s", cd.ToETag, curTag)
	}
}

// TestClientFetchPackageSurvivesOriginRefresh: a long-lived client (or
// a tsredge replica's upstream client, which stays current through
// deltas) fetched a package before an origin refresh. The transport
// keeps no index of its own, so fetching it after a refresh that
// changed its hash returns the new generation's bytes.
func TestClientFetchPackageSurvivesOriginRefresh(t *testing.T) {
	w, r := refreshedWorld(t)
	srv := httptest.NewServer(Handler(w.svc))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL, RepoID: r.ID, HTTPClient: srv.Client()}

	// Prime the client's cached index at the current generation.
	before, err := client.FetchPackage("app")
	if err != nil {
		t.Fatal(err)
	}
	// The origin republishes app with different content (new hash).
	advance(t, w, r, "app", "1.1-r0")
	after, err := client.FetchPackage("app")
	if err != nil {
		t.Fatalf("fetch across origin refresh: %v", err)
	}
	if string(after) == string(before) {
		t.Fatal("client served the old generation after the origin refreshed")
	}
}
