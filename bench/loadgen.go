package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"tsr/internal/chaos"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/tsr"
)

// Load generation for the two read workloads: closed-loop clients, each
// on its own connection, each sending its next request only after it has
// read and verified the previous response. Latency is client-observed to
// the last body byte; verification happens after the timestamp.

type opKind int

const (
	opIndex304 opKind = iota
	opIndexGzip
	opIndexIdentity
	opIndexDelta
	opPkgFull
	opPkgRange
	opPkgChunks
	opPkg304
	numOpKinds
)

var opNames = [numOpKinds]string{
	"index_304", "index_gzip", "index_identity", "index_delta",
	"pkg_full", "pkg_range", "pkg_chunks", "pkg_304",
}

func (k opKind) isIndex() bool { return k <= opIndexDelta }

// opMix is a cumulative distribution over op kinds.
type opMix []struct {
	upTo float64
	kind opKind
}

var (
	// 70% revalidation, 20% full gzip, 5% full identity, 5% delta.
	indexPollMix = opMix{{0.70, opIndex304}, {0.90, opIndexGzip}, {0.95, opIndexIdentity}, {1, opIndexDelta}}
	// 79% full body, 10% 64 KiB range, 5% chunk manifest, 5% package
	// revalidation, and the 1% index revalidation a package manager does
	// between installs (so "index ops < 5% of op time" is a measurement,
	// not a tautology).
	packageFetchMix = opMix{{0.79, opPkgFull}, {0.89, opPkgRange}, {0.94, opPkgChunks}, {0.99, opPkg304}, {1, opIndex304}}
)

func (m opMix) draw(rng *rand.Rand) opKind {
	r := rng.Float64()
	for _, e := range m {
		if r < e.upTo {
			return e.kind
		}
	}
	return m[len(m)-1].kind
}

const rangeLen = 64 << 10

// verifier checks every byte the clients read, independently of the
// program: chaos.Checker for the paper's invariants (signature valid
// under the tenant key, per-client sequence monotone, package hash and
// size equal the signed entry, ETag == sha256(body), a 206 is the named
// slice of the representation it names), plus byte equality against the
// canonical form for gzip transfers, deltas and chunk manifests.
//
// A response body that was fully verified once is remembered by its
// validators; a repeat is compared byte for byte against that copy,
// which checks the same thing without decoding a 60 KB index on the
// client's CPU for every read.
type verifier struct {
	chk    *chaos.Checker
	mu     sync.Mutex
	memo   map[string][]byte
	gens   map[string]*index.Index // verified generations by index ETag
	bodies map[string][]byte       // reference package bodies by name
	ix     *index.Index            // the generation the read workloads poll
	etag   string
	prev   string // previous generation's ETag: the delta base
}

func newVerifier(ring *keys.Ring) *verifier {
	return &verifier{
		chk:    chaos.NewChecker(ring),
		memo:   make(map[string][]byte),
		gens:   make(map[string]*index.Index),
		bodies: make(map[string][]byte),
	}
}

// addGeneration records a signed index read in-process from the origin
// as a reference generation; the latest is the one clients must see.
func (v *verifier) addGeneration(signed *index.Signed) error {
	ix := v.chk.IndexAccepted("reference", signed)
	if ix == nil {
		return fmt.Errorf("bench: reference index rejected: %v", v.chk.Violations())
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.prev, v.etag, v.ix = v.etag, signed.ETag(), ix
	v.gens[v.etag] = ix
	return nil
}

func (v *verifier) remembered(key string, body []byte) (known, same bool) {
	v.mu.Lock()
	ref, ok := v.memo[key]
	v.mu.Unlock()
	return ok, ok && bytes.Equal(ref, body)
}

func (v *verifier) remember(key string, body []byte) {
	v.mu.Lock()
	v.memo[key] = append([]byte(nil), body...)
	v.mu.Unlock()
}

// loadClient is one closed-loop client.
type loadClient struct {
	actor string
	bases []string // "<server>/repos/<id>"; op i goes to bases[i % len]
	hc    *http.Client
	v     *verifier
	rng   *rand.Rand
	mix   opMix
	hot   []index.Entry // package popularity order
	zipf  *zipf
	seams seams

	buf       bytes.Buffer
	zr        *gzip.Reader
	plain     bytes.Buffer
	ops       int
	attempted int64
	failed    int64
	errs      []string
	bytesIn   int64
	lat       [numOpKinds][]float64 // ms, successful ops only
}

func newLoadClient(w *world, v *verifier, id int, mix opMix, hot []index.Entry, servers ...*loopServer) *loadClient {
	c := &loadClient{
		actor: fmt.Sprintf("client-%d", id),
		hc:    w.newHTTPClient(),
		v:     v,
		rng:   rand.New(rand.NewSource(w.seed*7919 + int64(id))),
		mix:   mix,
		hot:   hot,
		seams: w.seams,
	}
	for _, s := range servers {
		c.bases = append(c.bases, s.url+"/repos/"+w.tenant.ID)
	}
	if len(hot) > 0 {
		c.zipf = newZipf(len(hot), 1.1)
	}
	return c
}

// response is what one GET returned; body is valid until the next get.
type response struct {
	status int
	header http.Header
	body   []byte // as transferred
	ms     float64
}

func (c *loadClient) get(ctx context.Context, base, path string, headers ...string) (*response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	c.bytesIn += int64(c.buf.Len())
	return &response{status: resp.StatusCode, header: resp.Header, body: c.buf.Bytes(), ms: ms}, nil
}

// decoded returns the canonical body: gunzipped when the transfer was.
func (c *loadClient) decoded(r *response, wantGzip bool) ([]byte, error) {
	isGzip := strings.EqualFold(r.header.Get("Content-Encoding"), "gzip")
	if isGzip != wantGzip {
		return nil, fmt.Errorf("Content-Encoding %q, asked for gzip=%v", r.header.Get("Content-Encoding"), wantGzip)
	}
	if !isGzip {
		return r.body, nil
	}
	src := bytes.NewReader(r.body)
	if c.zr == nil {
		zr, err := gzip.NewReader(src)
		if err != nil {
			return nil, err
		}
		c.zr = zr
	} else if err := c.zr.Reset(src); err != nil {
		return nil, err
	}
	c.plain.Reset()
	if _, err := c.plain.ReadFrom(c.zr); err != nil {
		return nil, err
	}
	return c.plain.Bytes(), nil
}

// step performs and verifies the client's next operation.
func (c *loadClient) step(ctx context.Context) {
	kind := c.mix.draw(c.rng)
	base := c.bases[c.ops%len(c.bases)]
	c.ops++
	var entry index.Entry
	if !kind.isIndex() {
		entry = c.hot[c.zipf.draw(c.rng)]
	}
	// Drawn before the request so the op sequence is a function of the
	// seed alone, whatever the responses are.
	off := c.rng.Int63()

	end := c.seams.opSpan("op." + opNames[kind])
	ms, err := c.perform(ctx, kind, base, entry, off)
	end()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf("%s %s: %v", c.actor, opNames[kind], err))
		}
		return
	}
	c.lat[kind] = append(c.lat[kind], ms)
}

func (c *loadClient) perform(ctx context.Context, kind opKind, base string, entry index.Entry, off int64) (float64, error) {
	v := c.v
	pkgPath := "/packages/" + entry.Name
	switch kind {
	case opIndex304:
		r, err := c.get(ctx, base, "/index", "If-None-Match", v.etag)
		if err != nil {
			return 0, err
		}
		return r.ms, expect304(r, v.etag)

	case opIndexGzip, opIndexIdentity:
		gz := kind == opIndexGzip
		enc := "identity"
		if gz {
			enc = "gzip"
		}
		r, err := c.get(ctx, base, "/index", "Accept-Encoding", enc)
		if err != nil {
			return 0, err
		}
		if r.status != http.StatusOK {
			return 0, fmt.Errorf("HTTP %d", r.status)
		}
		raw, err := c.decoded(r, gz)
		if err != nil {
			return 0, err
		}
		return r.ms, c.checkIndex(r, raw)

	case opIndexDelta:
		r, err := c.get(ctx, base, "/index/delta?since="+url.QueryEscape(v.prev), "Accept-Encoding", "gzip")
		if err != nil {
			return 0, err
		}
		if r.status != http.StatusOK {
			return 0, fmt.Errorf("HTTP %d", r.status)
		}
		raw, err := c.decoded(r, true)
		if err != nil {
			return 0, err
		}
		return r.ms, c.checkDelta(r, raw)

	case opPkgFull:
		r, err := c.get(ctx, base, pkgPath)
		if err != nil {
			return 0, err
		}
		if r.status != http.StatusOK {
			return 0, fmt.Errorf("HTTP %d", r.status)
		}
		v.chk.HTTPResponse(c.actor, r.status, r.header.Get("ETag"), "", r.body)
		v.chk.PackageAccepted(c.actor, entry, r.body)
		return r.ms, nil

	case opPkgRange:
		n := min(int64(rangeLen), entry.Size)
		first := off % (entry.Size - n + 1)
		r, err := c.get(ctx, base, pkgPath,
			"Range", fmt.Sprintf("bytes=%d-%d", first, first+n-1), "If-Range", entry.ETag())
		if err != nil {
			return 0, err
		}
		if r.status != http.StatusPartialContent {
			return 0, fmt.Errorf("HTTP %d, want 206", r.status)
		}
		cr := r.header.Get("Content-Range")
		if want := fmt.Sprintf("bytes %d-%d/%d", first, first+n-1, entry.Size); cr != want {
			return 0, fmt.Errorf("Content-Range %q, want %q", cr, want)
		}
		v.chk.RangeResponse(c.actor, r.status, r.header.Get("ETag"), cr, r.body, v.bodies[entry.Name])
		return r.ms, nil

	case opPkgChunks:
		r, err := c.get(ctx, base, pkgPath+"/chunks", "Accept-Encoding", "gzip")
		if err != nil {
			return 0, err
		}
		if r.status != http.StatusOK {
			return 0, fmt.Errorf("HTTP %d", r.status)
		}
		raw, err := c.decoded(r, true)
		if err != nil {
			return 0, err
		}
		return r.ms, c.checkManifest(r, raw, entry)

	case opPkg304:
		r, err := c.get(ctx, base, pkgPath, "If-None-Match", entry.ETag())
		if err != nil {
			return 0, err
		}
		return r.ms, expect304(r, entry.ETag())
	}
	return 0, fmt.Errorf("unknown op %d", kind)
}

func expect304(r *response, etag string) error {
	if r.status != http.StatusNotModified {
		return fmt.Errorf("HTTP %d, want 304", r.status)
	}
	if got := r.header.Get("ETag"); got != etag {
		return fmt.Errorf("304 ETag %s, want %s", got, etag)
	}
	if len(r.body) != 0 {
		return fmt.Errorf("304 with a %d-byte body", len(r.body))
	}
	return nil
}

// signedFromResponse rebuilds the signed index a 200 carried: canonical
// text plus the origin's signature headers, which must hash to the ETag.
func signedFromResponse(r *response, raw []byte) (*index.Signed, error) {
	sig, err := base64.StdEncoding.DecodeString(r.header.Get("X-Tsr-Signature"))
	if err != nil {
		return nil, fmt.Errorf("signature header: %w", err)
	}
	signed := &index.Signed{Raw: raw, KeyName: r.header.Get("X-Tsr-Key-Name"), Sig: sig}
	if etag := r.header.Get("ETag"); signed.ETag() != etag {
		return nil, fmt.Errorf("index ETag %s does not match the signed form %s", etag, signed.ETag())
	}
	return signed, nil
}

// checkIndex verifies a full index response: the canonical text under
// the origin's signature headers, whatever the transfer encoding.
func (c *loadClient) checkIndex(r *response, raw []byte) error {
	etag := r.header.Get("ETag")
	if etag != c.v.etag {
		return fmt.Errorf("index ETag %s, want the current generation %s", etag, c.v.etag)
	}
	key := "index|" + c.actor + "|" + etag + "|" + r.header.Get("X-Tsr-Key-Name") + "|" + r.header.Get("X-Tsr-Signature")
	if known, same := c.v.remembered(key, raw); known {
		if !same {
			return fmt.Errorf("index body differs from the verified text of %s", etag)
		}
		return nil
	}
	signed, err := signedFromResponse(r, raw)
	if err != nil {
		return err
	}
	if c.v.chk.IndexAccepted(c.actor, signed) == nil {
		return fmt.Errorf("index rejected by the checker")
	}
	c.v.remember(key, raw)
	return nil
}

// checkDelta verifies a delta response by applying it to the verified
// base generation: the result must be the current signed index.
func (c *loadClient) checkDelta(r *response, raw []byte) error {
	v := c.v
	etag := r.header.Get("ETag")
	if etag != v.etag {
		return fmt.Errorf("delta ETag %s, want the current generation %s", etag, v.etag)
	}
	key := "delta|" + c.actor + "|" + v.prev + "|" + etag
	if known, same := v.remembered(key, raw); known {
		if !same {
			return fmt.Errorf("delta body differs from the verified delta %s -> %s", v.prev, etag)
		}
		return nil
	}
	d, err := index.DecodeDelta(raw)
	if err != nil {
		return err
	}
	signed, _, err := d.Apply(v.gens[v.prev])
	if err != nil {
		return err
	}
	if signed.ETag() != etag {
		return fmt.Errorf("delta applies to %s, want %s", signed.ETag(), etag)
	}
	if v.chk.IndexAccepted(c.actor+"-delta", signed) == nil {
		return fmt.Errorf("delta result rejected by the checker")
	}
	v.remember(key, raw)
	return nil
}

// checkManifest verifies a chunk manifest against the signed entry and
// the reference bytes: every chunk must hash to the slice it names.
func (c *loadClient) checkManifest(r *response, raw []byte, entry index.Entry) error {
	if etag := r.header.Get("ETag"); etag != entry.ETag() {
		return fmt.Errorf("manifest ETag %s, want the package's %s", etag, entry.ETag())
	}
	key := "chunks|" + entry.ETag()
	if known, same := c.v.remembered(key, raw); known {
		if !same {
			return fmt.Errorf("manifest of %s differs from the verified one", entry.Name)
		}
		return nil
	}
	name, m, err := tsr.DecodeChunkManifest(raw)
	if err != nil {
		return err
	}
	if name != entry.Name || m.PackageHash != entry.Hash || m.TotalSize != entry.Size {
		return fmt.Errorf("manifest of %s is not rooted in its signed entry", entry.Name)
	}
	ref := c.v.bodies[entry.Name]
	for i, ch := range m.Chunks {
		if sha256.Sum256(ref[ch.Offset:ch.Offset+ch.Size]) != ch.Hash {
			return fmt.Errorf("manifest of %s: chunk %d does not hash to its bytes", entry.Name, i)
		}
	}
	c.v.remember(key, raw)
	return nil
}

// runClients drives the clients closed-loop for d. at (single-client
// runs only) is called once the client has completed atOps operations:
// the point where a traced and an untraced run of the same seed must
// have identical program counters. The run lasts at least that long.
func runClients(ctx context.Context, clients []*loadClient, d time.Duration, atOps int, at func()) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			for (time.Now().Before(deadline) || (at != nil && c.ops < atOps)) && ctx.Err() == nil {
				c.step(ctx)
				if at != nil && atOps > 0 && c.ops == atOps {
					at()
				}
			}
		}(c)
	}
	wg.Wait()
}
