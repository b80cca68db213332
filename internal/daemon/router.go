package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"time"

	"tsr/internal/ring"
	"tsr/internal/tsr"
)

// Router shards tenant repositories across a fleet of tsrd origins
// with a consistent-hash ring: every repository id hashes to exactly
// one backend, its owner, and every deploy and every /repos/{id}/...
// request for that id goes there. A tenant's signing key, sealed state
// and TPM counter live in one enclave (§5.2, §5.5), so no other backend
// can answer for it: while the owner is down its requests answer 502,
// and they answer from the owner again once it is back.
//
// Placement happens at deploy time: POST /policies generates the repo
// id at the router (or honors a caller-supplied ?id=) and forwards the
// deploy to the owner with ?id= pinned, so the router — not the
// backend's own id generator — names the tenant and every later
// request for that id hashes to the same box with no placement table.
//
// GET /stats fans out to every backend and returns the per-backend
// service stats keyed by backend URL; GET /ring reports the nodes and,
// with ?id=, the owner of one repository.
type Router struct {
	ring    *ring.Ring
	nodes   []string // ring node names == normalized backend base URLs
	proxies map[string]*httputil.ReverseProxy
	client  *http.Client // deploy + stats fan-out
	log     *slog.Logger
}

// NewRouter parses the backend list and builds the ring. Backend URLs
// are normalized (trailing slash stripped) so the ring key, the proxy
// target, and the /stats map key are byte-identical. replicas is the
// number of virtual nodes per backend (0 = the ring's default).
func NewRouter(backends []string, replicas int, log *slog.Logger) (*Router, error) {
	rt := &Router{
		proxies: map[string]*httputil.ReverseProxy{},
		client:  &http.Client{Timeout: 2 * time.Minute},
		log:     log,
	}
	for _, b := range backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			continue
		}
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("backend %q: not an absolute URL", b)
		}
		if _, dup := rt.proxies[b]; dup {
			continue
		}
		node := b
		p := httputil.NewSingleHostReverseProxy(u)
		p.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			rt.log.Error("proxy to backend failed", "backend", node, "path", r.URL.Path, "err", err)
			tsr.HTTPError(w, http.StatusBadGateway, fmt.Errorf("backend %s unreachable: %w", node, err))
		}
		rt.proxies[node] = p
		rt.nodes = append(rt.nodes, node)
	}
	if len(rt.nodes) == 0 {
		return nil, errors.New("no backends (set -backends http://host:port,...)")
	}
	rt.ring = ring.New(replicas, rt.nodes...)
	rt.nodes = rt.ring.Nodes()
	return rt, nil
}

// Nodes returns the backends in ring order.
func (rt *Router) Nodes() []string { return append([]string(nil), rt.nodes...) }

// Owner returns the backend that holds repository id.
//
//lint:allow deadexport tests ask the router where a repository lives
func (rt *Router) Owner(id string) string { return rt.ring.Owner(id) }

// Handler serves the router's API.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /policies", rt.deploy)
	mux.HandleFunc("/repos/{id}/", rt.proxyRepo)
	mux.HandleFunc("/repos/{id}", rt.proxyRepo)
	mux.HandleFunc("GET /stats", rt.stats)
	mux.HandleFunc("GET /ring", rt.ringInfo)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		tsr.WriteJSON(w, map[string]string{"status": "ok"})
	})
	return mux
}

// deploy places a new tenant: the router reads the policy under the
// origin's own cap, names the repository (or honors a caller ?id=), and
// forwards the deploy to the id's owner with ?id= pinned. The response
// streams back verbatim — it is the OWNER's attestation report and
// public key, which the client verifies end-to-end; the router adds
// the placement in an X-Tsr-Backend header without touching the body.
func (rt *Router) deploy(w http.ResponseWriter, r *http.Request) {
	body, ok := tsr.ReadPolicyBody(w, r)
	if !ok {
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		var err error
		if id, err = tsr.NewRepoID(); err != nil {
			tsr.HTTPError(w, http.StatusInternalServerError, err)
			return
		}
	}
	node := rt.ring.Owner(id)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		node+"/policies?id="+url.QueryEscape(id), bytes.NewReader(body))
	if err != nil {
		tsr.HTTPError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	resp, err := rt.client.Do(req)
	if err != nil {
		tsr.HTTPError(w, http.StatusBadGateway, fmt.Errorf("deploy to %s: %w", node, err))
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.Header().Set("X-Tsr-Backend", node)
	//lint:allow statusroute proxy relays the backend's own status verbatim; there is no router-side error to classify
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxyRepo forwards any /repos/{id}/... request to the id's owner.
func (rt *Router) proxyRepo(w http.ResponseWriter, r *http.Request) {
	node := rt.ring.Owner(r.PathValue("id"))
	w.Header().Set("X-Tsr-Backend", node)
	rt.proxies[node].ServeHTTP(w, r)
}

// stats fans GET /stats out to every backend and returns the raw
// per-backend documents keyed by backend URL, with unreachable
// backends listed separately — the fleet-wide view of the per-service
// tenant totals and scheduler snapshots.
func (rt *Router) stats(w http.ResponseWriter, r *http.Request) {
	docs := make([]json.RawMessage, len(rt.nodes))
	errs := make([]error, len(rt.nodes))
	var wg sync.WaitGroup
	for i, node := range rt.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			docs[i], errs[i] = rt.backendStats(r, node)
		}()
	}
	wg.Wait()
	doc := struct {
		Backends    map[string]json.RawMessage `json:"backends"`
		Unreachable map[string]string          `json:"unreachable,omitempty"`
	}{Backends: map[string]json.RawMessage{}}
	for i, node := range rt.nodes {
		if errs[i] != nil {
			if doc.Unreachable == nil {
				doc.Unreachable = map[string]string{}
			}
			doc.Unreachable[node] = errs[i].Error()
			continue
		}
		doc.Backends[node] = docs[i]
	}
	tsr.WriteJSON(w, doc)
}

// backendStats reads one backend's GET /stats document.
func (rt *Router) backendStats(r *http.Request, node string) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, node+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d from %s", resp.StatusCode, node)
	}
	doc, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("reading stats from %s: %w", node, err)
	}
	return doc, nil
}

// ringInfo reports placement for operators: the nodes in ring order
// and, with ?id=, the owner of that repository.
func (rt *Router) ringInfo(w http.ResponseWriter, r *http.Request) {
	doc := struct {
		Nodes []string `json:"nodes"`
		Owner string   `json:"owner,omitempty"`
	}{Nodes: rt.nodes}
	if id := r.URL.Query().Get("id"); id != "" {
		doc.Owner = rt.ring.Owner(id)
	}
	tsr.WriteJSON(w, doc)
}
