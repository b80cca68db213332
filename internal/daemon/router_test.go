package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"tsr/internal/experiments"
	"tsr/internal/keys"
	"tsr/internal/tsr"
)

// origin is one real tsrd backend: a service behind tsr.Handler on a
// loopback listener that can be closed and reopened on the same
// address, like a daemon restarting with its state intact.
type origin struct {
	t    *testing.T
	svc  *tsr.Service
	addr string
	srv  *httptest.Server
}

func startOrigin(t *testing.T, svc *tsr.Service) *origin {
	o := &origin{t: t, svc: svc}
	o.srv = httptest.NewServer(tsr.Handler(svc))
	o.addr = o.srv.Listener.Addr().String()
	t.Cleanup(func() { o.srv.Close() })
	return o
}

func (o *origin) url() string { return "http://" + o.addr }

func (o *origin) restart() {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		o.t.Fatalf("relisten on %s: %v", o.addr, err)
	}
	o.srv = httptest.NewUnstartedServer(tsr.Handler(o.svc))
	o.srv.Listener.Close()
	o.srv.Listener = ln
	o.srv.Start()
}

// TestRouterSendsEveryTenantToItsOwner runs the router over two real
// origins. A tenant lives in exactly one enclave, so the router must
// send it to its ring owner and nowhere else: with the owner down,
// reads and a pinned deploy answer 502 instead of reaching a backend
// that never held (or would wrongly create) the tenant, and once the
// owner is back its tenants answer from it again.
func TestRouterSendsEveryTenantToItsOwner(t *testing.T) {
	var origins []*origin
	var policy []byte
	for range 2 {
		w, err := experiments.NewWorld(experiments.Config{Scale: 0.003, Seed: 5}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		origins = append(origins, startOrigin(t, w.Service))
		policy = w.PolicyRaw
	}
	rt, err := NewRouter([]string{origins[0].url(), origins[1].url()}, 0,
		slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	byURL := func(u string) *origin {
		for _, o := range origins {
			if o.url() == u {
				return o
			}
		}
		t.Fatalf("no origin at %s", u)
		return nil
	}
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(router.URL+path, "application/yaml", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Deploy and refresh through the router, then read it back with a
	// tsr.Client and verify the index against the deployed key.
	resp := post("/policies", policy)
	var deployed struct {
		RepositoryID string `json:"repository_id"`
		PublicKey    string `json:"public_key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&deployed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := deployed.RepositoryID
	if resp.StatusCode != http.StatusOK || id == "" {
		t.Fatalf("deploy: HTTP %d, id %q", resp.StatusCode, id)
	}
	ownerURL := rt.Owner(id)
	if got := resp.Header.Get("X-Tsr-Backend"); got != ownerURL {
		t.Fatalf("deploy landed on %s, ring owner is %s", got, ownerURL)
	}
	owner := byURL(ownerURL)
	other := origins[0]
	if other == owner {
		other = origins[1]
	}
	if !slices.Contains(owner.svc.RepoIDs(), id) || slices.Contains(other.svc.RepoIDs(), id) {
		t.Fatalf("tenant %s not deployed on its owner alone", id)
	}
	resp = post("/repos/"+id+"/refresh", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh: HTTP %d", resp.StatusCode)
	}
	pub, err := keys.ParsePEM("tsr-"+id, []byte(deployed.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	client := &tsr.Client{BaseURL: router.URL, RepoID: id}
	signed, err := client.FetchIndex()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := signed.Verify(keys.NewRing(pub))
	if err != nil {
		t.Fatalf("index fetched through the router does not verify: %v", err)
	}
	pkg := ix.Entries[0]
	if _, err := client.FetchPackage(pkg.Name); err != nil {
		t.Fatalf("package %s through the router: %v", pkg.Name, err)
	}

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(router.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	reads := []string{"/repos/" + id + "/index", "/repos/" + id + "/packages/" + pkg.Name, "/repos/" + id + "/stats"}

	// Owner down: its tenant's reads are 502, never the other backend's
	// 404, and a deploy pinned to the owner creates nothing elsewhere.
	owner.srv.Close()
	for _, p := range reads {
		if code := get(p); code != http.StatusBadGateway {
			t.Errorf("GET %s with the owner down: HTTP %d, want 502", p, code)
		}
	}
	pinned := ""
	for pinned == "" {
		cand, err := tsr.NewRepoID()
		if err != nil {
			t.Fatal(err)
		}
		if rt.Owner(cand) == ownerURL {
			pinned = cand
		}
	}
	resp = post("/policies?id="+pinned, policy)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("deploy pinned to the down owner: HTTP %d, want 502", resp.StatusCode)
	}
	if slices.Contains(other.svc.RepoIDs(), pinned) || slices.Contains(owner.svc.RepoIDs(), pinned) {
		t.Errorf("deploy of %s with its owner down created it somewhere", pinned)
	}

	// Owner back: its tenant answers from it again.
	owner.restart()
	for _, p := range reads {
		if code := get(p); code != http.StatusOK {
			t.Fatalf("GET %s after the owner restarted: HTTP %d, want 200", p, code)
		}
	}
	if _, err := client.FetchPackage(pkg.Name); err != nil {
		t.Fatalf("package %s after the owner restarted: %v", pkg.Name, err)
	}
}

// TestStatsReportsTheReadError: a backend whose 200 body breaks off is
// listed as unreachable with the read error, not as "HTTP 200".
func TestStatsReportsTheReadError(t *testing.T) {
	torn := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{")
		buf.Flush()
		conn.Close()
	}))
	defer torn.Close()
	rt, err := NewRouter([]string{torn.URL}, 0, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var doc struct {
		Unreachable map[string]string `json:"unreachable"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Unreachable[torn.URL]; !strings.Contains(got, "unexpected EOF") {
		t.Fatalf("unreachable[%s] = %q, want the read error", torn.URL, got)
	}
}
