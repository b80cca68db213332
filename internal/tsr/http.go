package tsr

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"tsr/internal/index"
	"tsr/internal/trace"
)

// maxPolicyBytes caps POST /policies request bodies; larger bodies are
// refused with 413 rather than silently truncated.
const maxPolicyBytes = 10 << 20

// maxIngestBytes caps POST /repos/{id}/ingest request bodies.
const maxIngestBytes = 64 << 20

// maxBodyPresize caps the buffer a client reserves for a body before
// its bytes arrive; larger bodies grow the buffer as they read.
const maxBodyPresize = 16 << 20

// maxPackageBytes caps every package body a client reads: a full
// download, or the full body a server answers a range request with.
const maxPackageBytes = 1 << 30

// Handler exposes the Service as the REST API of §5.2 — the read API
// every tier serves (RegisterReadRoutes) plus the origin's trusted
// operations:
//
//	GET  /repos/{id}/index                 the signed metadata index
//	GET  /repos/{id}/index/delta           delta from a retained generation (?since=<etag>)
//	GET  /repos/{id}/packages/{pkg}        a sanitized package
//	GET  /repos/{id}/packages/{pkg}/chunks the package's chunk manifest
//	POST /policies                         deploy a policy (optional ?id= for
//	                                       router-chosen placement), returns
//	                                       repo id + public key + attestation
//	                                       report
//	POST /repos/{id}/refresh               pull upstream and re-sanitize
//	POST /repos/{id}/ingest                bulk-register original packages
//	                                       (chunk-framed body, crash-safe)
//	GET  /repos/{id}/scripts/{pkg}         a sanitized package's hook scripts
//	GET  /repos/{id}/rejected              rejected packages and reasons
//	GET  /repos/{id}/findings              security findings
//	GET  /repos/{id}/stats                 cumulative refresh/cache counters
//	GET  /stats                            service-wide: per-tenant counters,
//	                                       totals, scheduler snapshot
//	GET  /healthz                          liveness
func Handler(s *Service) http.Handler {
	mux := http.NewServeMux()
	RegisterReadRoutes(mux, func(id string) (ReadView, error) { return s.Repo(id) }, statusFor, "")
	mux.HandleFunc("POST /policies", func(w http.ResponseWriter, r *http.Request) {
		body, ok := ReadPolicyBody(w, r)
		if !ok {
			return
		}
		id, pub, report, err := s.DeployPolicyID(body, r.URL.Query().Get("id"))
		if err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, map[string]any{
			"repository_id":       id,
			"public_key":          string(pub),
			"enclave_measurement": hex.EncodeToString(report.Measurement[:]),
			"report_data":         hex.EncodeToString(report.ReportData[:]),
			"report_signature":    base64.StdEncoding.EncodeToString(report.Sig),
			"report_key_name":     report.KeyName,
		})
	})
	mux.HandleFunc("POST /repos/{id}/refresh", func(w http.ResponseWriter, r *http.Request) {
		repo, err := s.Repo(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		stats, err := repo.RefreshCtx(r.Context())
		if err != nil {
			// 502 is reserved for upstream mirror/quorum failures;
			// local validation/seal/plan errors map to 500 and a
			// replay-detected refusal surfaces the rollback sentinel.
			HTTPError(w, statusFor(err), err)
			return
		}
		WriteJSON(w, map[string]any{
			"sanitized":         stats.Sanitized,
			"rejected":          stats.Rejected,
			"downloaded":        stats.Downloaded,
			"unchanged":         stats.Unchanged,
			"cache_hits":        stats.CacheHits,
			"workers":           stats.Workers,
			"errors":            stats.Errors,
			"quorum_latency_ms": stats.QuorumLatency.Milliseconds(),
			"mirrors_contacted": stats.MirrorsContacted,
		})
	})
	mux.HandleFunc("POST /repos/{id}/ingest", func(w http.ResponseWriter, r *http.Request) {
		repo, err := s.Repo(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		// The body is a sequence of chunk-framed packages (the same
		// length-prefixed framing the sealed state uses): 8-byte
		// big-endian length, then the raw package bytes, repeated.
		//lint:allow streamserve bulk ingest upload, bounded by maxIngestBytes; not a package-serving body
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				HTTPError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("ingest body exceeds %d bytes", tooBig.Limit))
				return
			}
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		raws, err := DecodeIngestBody(body)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		stats, err := repo.RegisterPackages(r.Context(), raws)
		if err != nil {
			HTTPError(w, statusFor(err), err)
			return
		}
		WriteJSON(w, stats)
	})
	mux.HandleFunc("GET /repos/{id}/stats", func(w http.ResponseWriter, r *http.Request) {
		repo, err := s.Repo(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, repo.CacheStats())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /repos/{id}/scripts/{pkg}", func(w http.ResponseWriter, r *http.Request) {
		repo, err := s.Repo(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		preview, err := repo.scriptPreview(r.PathValue("pkg"))
		if err != nil {
			HTTPError(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, preview)
	})
	mux.HandleFunc("GET /repos/{id}/rejected", func(w http.ResponseWriter, r *http.Request) {
		repo, err := s.Repo(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, repo.RejectedPackages())
	})
	mux.HandleFunc("GET /repos/{id}/findings", func(w http.ResponseWriter, r *http.Request) {
		repo, err := s.Repo(r.PathValue("id"))
		if err != nil {
			HTTPError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, repo.Findings())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, map[string]string{"status": "ok"})
	})
	return mux
}

// ReadPolicyBody reads a POST /policies body for the origin and the
// shard router alike. MaxBytesReader (unlike a silent LimitReader)
// fails the read when the body exceeds maxPolicyBytes, instead of
// truncating the policy and parsing the prefix as if it were complete.
// On failure it has answered the request (413 over the cap, 400
// otherwise) and reports false.
func ReadPolicyBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	//lint:allow streamserve policy upload, bounded by maxPolicyBytes; not a package body
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPolicyBytes))
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		HTTPError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("policy body exceeds %d bytes", tooBig.Limit))
	} else {
		HTTPError(w, http.StatusBadRequest, err)
	}
	return nil, false
}

// WriteJSON writes v as an indented JSON 200.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// HTTPError writes the JSON error body every handler of both daemons
// answers failures with; code comes from the tier's statusFor table.
func HTTPError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotInitialized):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnsupportedPkg):
		return http.StatusForbidden
	case errors.Is(err, index.ErrNotFound), errors.Is(err, index.ErrNoDelta):
		return http.StatusNotFound
	case errors.Is(err, ErrUpstream):
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// ETagMatch implements If-None-Match matching against a strong ETag
// per RFC 9110 §13.1.2: the header is either `*` (matches any current
// representation) or a list of entity-tags; the comparison is weak, so
// `W/` prefixes on listed tags are ignored. The list is parsed with a
// real tokenizer — members are split on commas *outside* quoted
// strings, because the etagc grammar (%x23-7E) permits commas inside an
// opaque tag — instead of a naive strings.Split. Exported so the edge
// replica HTTP handler answers conditional requests with exactly the
// origin's semantics.
func ETagMatch(header, etag string) bool {
	rest := strings.TrimSpace(header)
	if rest == "" {
		return false
	}
	// `*` is only valid as the entire field value.
	if rest == "*" {
		return true
	}
	for rest != "" {
		rest = strings.TrimLeft(rest, " \t,")
		if rest == "" {
			break
		}
		var candidate string
		candidate, rest = nextETagToken(rest)
		if strings.TrimPrefix(candidate, "W/") == etag {
			return true
		}
	}
	return false
}

// nextETagToken splits one entity-tag (optionally W/-prefixed, normally
// a quoted string) off the front of an If-None-Match field value.
// Malformed input degrades gracefully: an unterminated quote consumes
// the remainder as one token, and an unquoted token (sloppy client)
// extends to the next comma.
func nextETagToken(s string) (token, rest string) {
	i := 0
	if strings.HasPrefix(s, "W/") {
		i = 2
	}
	if i < len(s) && s[i] == '"' {
		if j := strings.IndexByte(s[i+1:], '"'); j >= 0 {
			end := i + 1 + j + 1
			return s[:end], s[end:]
		}
		return s, ""
	}
	if j := strings.IndexByte(s, ','); j >= 0 {
		return strings.TrimSpace(s[:j]), s[j+1:]
	}
	return strings.TrimSpace(s), ""
}

// Client is an HTTP transport for one TSR repository's read API, at
// the origin or at any edge: the signed index (revalidated with
// If-None-Match, so an unchanged index costs a 304 round trip), index
// deltas, chunk manifests, packages and byte ranges. It satisfies
// pkgmgr.Source, edge.Origin and edge.Fetcher, so an OS can be pointed
// at TSR exactly like at a plain mirror (§4.3: "Package managers
// recognize TSR as a standard repository mirror").
//
// The client is a transport; callers verify. It checks no signature
// and no package hash: pkgmgr.Manager and edge.FailoverClient accept
// indexes only through index.AcceptIndex, and they and edge.Replica
// check every package against an entry of an index they accepted.
type Client struct {
	// BaseURL is the TSR server base (e.g. "http://host:8473").
	BaseURL string
	// RepoID is the tenant repository id from policy deployment.
	RepoID string
	// HTTPClient defaults to a client with a 60s timeout — NOT
	// http.DefaultClient, whose absent timeout would let one
	// black-holed origin connection wedge a sync loop (or a
	// FailoverClient's ranking) forever.
	HTTPClient *http.Client
	// Context, when non-nil, scopes every request this client makes.
	// Daemons set it to their shutdown context so in-flight syncs are
	// aborted instead of drained. Defaults to context.Background().
	Context context.Context

	mu        sync.Mutex
	cached    *index.Signed // last 200 index response (body + signature)
	cachedTag string        // its ETag, sent as If-None-Match

	wire wireCounters
}

// defaultHTTPClient bounds every request of clients that did not bring
// their own http.Client. A hung origin or edge then costs one timeout,
// not a goroutine parked forever.
var defaultHTTPClient = &http.Client{Timeout: 60 * time.Second}

func (c *Client) client() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// newRequest builds a GET bound to ctx — or, when the caller passed
// no per-call context (nil), to the client's configured Context. The
// request carries the caller's trace identity in the X-Tsr-Trace-Id /
// X-Tsr-Span-Id headers, so the server tier joins this trace instead
// of rooting its own.
func (c *Client) newRequest(ctx context.Context, url string) (*http.Request, error) {
	if ctx == nil {
		ctx = c.Context
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("tsr client: %w", err)
	}
	trace.Inject(ctx, req.Header)
	return req, nil
}

// FetchIndex implements pkgmgr.Source.
func (c *Client) FetchIndex() (*index.Signed, error) {
	signed, _, err := c.FetchIndexTagged()
	return signed, err
}

// FetchIndexTagged fetches the signed index together with its strong
// ETag — the handle an edge replica needs to delta-sync later. A 304
// revalidation returns the cached copy and its (unchanged) tag.
func (c *Client) FetchIndexTagged() (*index.Signed, string, error) {
	return c.FetchIndexTaggedCtx(nil)
}

// FetchIndexTaggedCtx is FetchIndexTagged under a caller context: the
// HTTP round trip runs as a child span and the request headers carry
// the trace identity downstream.
func (c *Client) FetchIndexTaggedCtx(ctx context.Context) (_ *index.Signed, _ string, err error) {
	ctx, sp := trace.Start(ctx, "http.index")
	defer func() { sp.SetError(err); sp.End() }()
	req, err := c.newRequest(ctx, c.BaseURL+"/repos/"+c.RepoID+"/index")
	if err != nil {
		return nil, "", err
	}
	// Negotiate gzip explicitly (disabling the transport's transparent
	// mode) so the client controls decompression: the wire counters see
	// the compressed size and verification runs on the decoded
	// canonical text.
	req.Header.Set("Accept-Encoding", "gzip")
	c.mu.Lock()
	prevTag := c.cachedTag
	c.mu.Unlock()
	if prevTag != "" {
		req.Header.Set("If-None-Match", prevTag)
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("tsr client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		c.mu.Lock()
		cached, tag := c.cached, c.cachedTag
		c.mu.Unlock()
		if cached == nil {
			return nil, "", fmt.Errorf("tsr client: index: 304 Not Modified without a cached index")
		}
		return cached.Clone(), tag, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("tsr client: index: %s", readErr(resp))
	}
	raw, err := readBody(resp, maxIndexWireBytes, &c.wire.indexBytes)
	if err != nil {
		return nil, "", fmt.Errorf("tsr client: %w", err)
	}
	// A response without the signature headers cannot be verified: fail
	// fast with the cause instead of returning an index whose empty
	// signature mysteriously fails verification downstream.
	keyName := resp.Header.Get(headerKeyName)
	sigB64 := resp.Header.Get(headerSignature)
	if keyName == "" || sigB64 == "" {
		return nil, "", fmt.Errorf("tsr client: index response missing %s/%s headers (not a TSR signed index?)",
			headerKeyName, headerSignature)
	}
	sig, err := base64.StdEncoding.DecodeString(sigB64)
	if err != nil {
		return nil, "", fmt.Errorf("tsr client: bad signature header: %w", err)
	}
	signed := &index.Signed{Raw: raw, KeyName: keyName, Sig: sig}
	etag := resp.Header.Get("ETag")
	if etag != "" {
		c.mu.Lock()
		// Store only if no concurrent FetchIndex cached a different
		// (necessarily newer-or-equal) response meanwhile: a slow older
		// 200 must not clobber a fresher tag and silently defeat future
		// revalidations.
		if c.cachedTag == prevTag {
			c.cached, c.cachedTag = signed.Clone(), etag
		}
		c.mu.Unlock()
	}
	return signed, etag, nil
}

// FetchIndexDelta fetches the delta from the generation tagged
// sinceETag to the server's current one (GET /index/delta). It returns
// index.ErrDeltaUnchanged when the base is already current and wraps
// index.ErrNoDelta when the server cannot produce a delta — the caller
// falls back to FetchIndexTagged.
func (c *Client) FetchIndexDelta(sinceETag string) (*index.Delta, error) {
	return c.FetchIndexDeltaCtx(nil, sinceETag)
}

// FetchIndexDeltaCtx is FetchIndexDelta under a caller context (see
// FetchIndexTaggedCtx).
func (c *Client) FetchIndexDeltaCtx(ctx context.Context, sinceETag string) (_ *index.Delta, err error) {
	ctx, sp := trace.Start(ctx, "http.index_delta")
	defer func() {
		// 304/404 are negotiation outcomes, not failures worth always
		// keeping a trace for.
		if err != nil && !errors.Is(err, index.ErrDeltaUnchanged) && !errors.Is(err, index.ErrNoDelta) {
			sp.SetError(err)
		}
		sp.End()
	}()
	u := c.BaseURL + "/repos/" + c.RepoID + "/index/delta?since=" + url.QueryEscape(sinceETag)
	req, err := c.newRequest(ctx, u)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("tsr client: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, index.ErrDeltaUnchanged
	case http.StatusOK:
	case http.StatusNotFound, http.StatusBadRequest:
		// Base generation fell out of the server's history (or the
		// server predates the delta endpoint): full fetch required.
		return nil, fmt.Errorf("%w: %s", index.ErrNoDelta, readErr(resp))
	default:
		return nil, fmt.Errorf("tsr client: index delta: %s", readErr(resp))
	}
	raw, err := readBody(resp, maxIndexWireBytes, &c.wire.indexBytes)
	if err != nil {
		return nil, fmt.Errorf("tsr client: %w", err)
	}
	d, err := index.DecodeDelta(raw)
	if err != nil {
		return nil, fmt.Errorf("tsr client: %w", err)
	}
	return d, nil
}

// FetchPackage downloads one package. The bytes are unverified: the
// caller checks them against an entry of an index it accepted.
func (c *Client) FetchPackage(name string) ([]byte, error) {
	return c.FetchPackageCtx(nil, name)
}

// FetchPackageCtx is FetchPackage under a caller context (see
// FetchIndexTaggedCtx).
func (c *Client) FetchPackageCtx(ctx context.Context, name string) (_ []byte, err error) {
	ctx, sp := trace.Start(ctx, "http.package")
	defer func() { sp.SetError(err); sp.End() }()
	sp.SetAttr("package", name)
	req, err := c.newRequest(ctx, c.BaseURL+"/repos/"+c.RepoID+"/packages/"+name)
	if err != nil {
		return nil, err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("tsr client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("tsr client: package %s: %s", name, readErr(resp))
	}
	raw, err := readBody(resp, maxPackageBytes, &c.wire.packageBytes)
	if err != nil {
		return nil, fmt.Errorf("tsr client: package %s: %w", name, err)
	}
	c.wire.fullFetches.Add(1)
	return raw, nil
}

func readErr(resp *http.Response) string {
	//lint:allow streamserve bounded 4 KiB error snippet, not a package body
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return strings.TrimSpace(resp.Status + " " + string(body))
}
