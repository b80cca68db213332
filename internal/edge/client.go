package edge

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/quorum"
	"tsr/internal/store"
	"tsr/internal/trace"
	"tsr/internal/tsr"
)

// Client-side error sentinels.
var (
	// ErrNoEndpoints: the client has no endpoints configured.
	ErrNoEndpoints = errors.New("edge: no endpoints configured")
	// ErrAllEndpointsFailed: every endpoint was tried and rejected.
	ErrAllEndpointsFailed = errors.New("edge: all endpoints failed")
)

// Fetcher is the read surface every tier serves: *tsr.Repo (origin,
// in-process), *tsr.Client (origin or edge over HTTP), and *Replica all
// satisfy it. The chunk manifest is the first half of a differential
// fetch; its byte ranges come through fetchRange (wire.go).
type Fetcher interface {
	FetchIndexTaggedCtx(ctx context.Context) (*index.Signed, string, error)
	FetchPackageCtx(ctx context.Context, name string) ([]byte, error)
	FetchChunkManifestCtx(ctx context.Context, name string) (*store.ChunkManifest, error)
}

// Endpoint is one place a FailoverClient can read from.
type Endpoint struct {
	// Name identifies the endpoint in stats and errors.
	Name string
	// Continent locates it for latency-aware selection.
	Continent netsim.Continent
	// Fetcher serves the reads.
	Fetcher Fetcher
}

// failPenalty is the modeled latency handicap added per consecutive
// failure when ranking endpoints: a misbehaving nearby edge is retried
// eventually (the penalty is finite) but stops being the first choice
// immediately.
const failPenalty = 250 * time.Millisecond

// FailoverClient reads one TSR repository through a set of endpoints —
// the trusted origin plus any number of untrusted edge replicas. It
// implements pkgmgr.Source, so package managers use it like a single
// repository and get, transparently:
//
//   - latency-aware selection: endpoints are ranked by modeled RTT from
//     the client's continent (netsim), demoted while they misbehave;
//   - end-to-end verification: every index must pass
//     index.AcceptIndex — a valid origin signature AND a sequence no
//     older than the freshest this client has accepted (defeating
//     frozen/replaying replicas); every package must hash to its entry
//     in that accepted index (defeating tampering replicas) —
//     unverified bytes are never returned;
//   - automatic failover: any verification or transport failure moves
//     on to the next-best endpoint;
//   - an optional quorum mode (QuorumK ≥ 3): FetchIndex cross-checks
//     the K nearest endpoints through the §4.5 quorum machinery, so a
//     byzantine minority of edges cannot even delay freshness.
type FailoverClient struct {
	// Local is the client's continent.
	Local netsim.Continent
	// Link models request latency; nil disables both modeled time and
	// latency-aware ranking (endpoint order is then configuration
	// order).
	Link *netsim.LinkModel
	// Clock is advanced by the modeled transfer time of each request.
	Clock netsim.Clock
	// TrustRing verifies index signatures: the tenant repository's
	// public key from policy deployment (Figure 7). Without one the
	// client accepts nothing (index.ErrUntrusted).
	TrustRing *keys.Ring
	// Endpoints are the origin and edges to read from.
	Endpoints []Endpoint
	// QuorumK, when ≥ 2, makes FetchIndex read the K nearest endpoints
	// through quorum agreement instead of trusting the first verifiable
	// answer. Use an odd K ≥ 3 to tolerate (K-1)/2 byzantine edges.
	QuorumK int
	// PkgCache, when set, retains verified package bytes
	// (content-addressed, untrusted — re-verified on every read) and
	// their diff bases (see pull), and enables chunk-aware differential
	// fetch: a version bump transfers only the changed chunks. nil
	// keeps the classic full-download behavior.
	PkgCache store.Store

	mu       sync.Mutex
	floor    index.Floor  // freshness floor of cachedIx
	cachedIx *index.Index // the accepted index (package hash lookups)
	failures []int        // consecutive failures per endpoint
	stats    FailoverStats
}

// FailoverStats counts what the client observed.
type FailoverStats struct {
	IndexFetches   int64 `json:"index_fetches"`
	PackageFetches int64 `json:"package_fetches"`
	// Failovers counts requests not answered by the first-ranked
	// endpoint.
	Failovers int64 `json:"failovers"`
	// Rejection reasons (each also triggers a failover attempt).
	// RejectedStale counts index.ErrStale and index.ErrFork refusals;
	// RejectedSignature counts the other refusals of a decodable answer.
	RejectedSignature int64 `json:"rejected_signature"`
	RejectedStale     int64 `json:"rejected_stale"`
	RejectedBytes     int64 `json:"rejected_bytes"`
	// Wire efficiency (only with PkgCache set): packages served from the
	// verified local cache, fetched differentially (changed chunks
	// only), and differential attempts that degraded to a full fetch.
	CacheHits     int64 `json:"cache_hits"`
	DiffFetches   int64 `json:"diff_fetches"`
	DiffFallbacks int64 `json:"diff_fallbacks"`
	// PerEndpoint counts requests successfully served by each endpoint.
	PerEndpoint map[string]int64 `json:"per_endpoint"`
}

// Stats returns a copy of the counters.
func (c *FailoverClient) Stats() FailoverStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.PerEndpoint = make(map[string]int64, len(c.stats.PerEndpoint))
	for k, v := range c.stats.PerEndpoint {
		out.PerEndpoint[k] = v
	}
	return out
}

// rank returns endpoint indexes ordered by modeled RTT from the
// client's continent plus a penalty per consecutive failure, so nearby
// healthy endpoints come first and misbehaving ones sink.
func (c *FailoverClient) rank() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) != len(c.Endpoints) {
		c.failures = make([]int, len(c.Endpoints))
	}
	order := make([]int, len(c.Endpoints))
	cost := make([]time.Duration, len(c.Endpoints))
	for i, ep := range c.Endpoints {
		order[i] = i
		if c.Link != nil {
			cost[i] = c.Link.RTT[c.Local][ep.Continent]
		}
		cost[i] += time.Duration(c.failures[i]) * failPenalty
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] < cost[order[b]] })
	return order
}

func (c *FailoverClient) noteFailure(i int) {
	c.mu.Lock()
	if len(c.failures) == len(c.Endpoints) && c.failures[i] < 16 {
		c.failures[i]++
	}
	c.mu.Unlock()
}

func (c *FailoverClient) noteServed(i int, attempt int) {
	c.mu.Lock()
	if len(c.failures) == len(c.Endpoints) {
		c.failures[i] = 0
	}
	if c.stats.PerEndpoint == nil {
		c.stats.PerEndpoint = make(map[string]int64)
	}
	c.stats.PerEndpoint[c.Endpoints[i].Name]++
	if attempt > 0 {
		c.stats.Failovers++
	}
	c.mu.Unlock()
}

// charge advances the clock by the modeled transfer time.
func (c *FailoverClient) charge(ep Endpoint, bytes int64) {
	if c.Link == nil {
		return
	}
	d := c.Link.RequestResponse(c.Local, ep.Continent, bytes)
	if c.Clock != nil {
		c.Clock.Sleep(d)
	}
}

// FetchIndex implements pkgmgr.Source. The returned index has passed
// index.AcceptIndex (signature + freshness) before it is returned; the
// decoded form is kept for package hash checks.
func (c *FailoverClient) FetchIndex() (*index.Signed, error) {
	return c.FetchIndexCtx(context.Background())
}

// FetchIndexCtx is FetchIndex as a "client.index" span: each endpoint
// attempt runs as a child, so a failover shows up as a sequence of
// attempts under one span rather than as unexplained latency.
func (c *FailoverClient) FetchIndexCtx(ctx context.Context) (_ *index.Signed, err error) {
	ctx, sp := trace.Start(ctx, "client.index")
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	sp.SetTier("client")
	if len(c.Endpoints) == 0 {
		return nil, ErrNoEndpoints
	}
	c.mu.Lock()
	c.stats.IndexFetches++
	c.mu.Unlock()
	if c.QuorumK >= 2 {
		return c.fetchIndexQuorum(ctx)
	}
	var errs []error
	for attempt, i := range c.rank() {
		ep := c.Endpoints[i]
		signed, _, err := ep.Fetcher.FetchIndexTaggedCtx(ctx)
		if err != nil {
			c.noteFailure(i)
			errs = append(errs, fmt.Errorf("%s: %w", ep.Name, err))
			continue
		}
		c.charge(ep, signed.Size())
		if _, err := c.accept(signed); err != nil {
			c.noteFailure(i)
			errs = append(errs, fmt.Errorf("%s: %w", ep.Name, err))
			continue
		}
		c.noteServed(i, attempt)
		return signed, nil
	}
	return nil, fmt.Errorf("%w: index: %w", ErrAllEndpointsFailed, errors.Join(errs...))
}

// fetchIndexQuorum cross-checks the K nearest endpoints through the
// quorum reader (§4.5): at least ⌊K/2⌋+1 endpoints must agree on the
// same signed index, so a byzantine minority of frozen or tampering
// edges can neither win nor stall the read. The agreed index still
// passes the client's own freshness floor.
func (c *FailoverClient) fetchIndexQuorum(ctx context.Context) (*index.Signed, error) {
	ranked := c.rank()
	k := c.QuorumK
	if k > len(ranked) {
		k = len(ranked)
	}
	sources := make([]*quorumSource, 0, k)
	members := make([]quorum.Member, 0, k)
	for _, i := range ranked[:k] {
		ep := c.Endpoints[i]
		src := &quorumSource{c: c, ep: i, ctx: ctx}
		sources = append(sources, src)
		members = append(members, quorum.Member{
			Host:      ep.Name,
			Continent: ep.Continent,
			Source:    src,
		})
	}
	reader := &quorum.Reader{
		Local:     c.Local,
		Link:      c.Link,
		Clock:     c.Clock,
		TrustRing: c.TrustRing,
		Members:   members,
	}
	res, err := reader.Read()
	if err != nil {
		return nil, fmt.Errorf("edge: quorum cross-check: %w", err)
	}
	floor, err := c.accept(res.Index)
	if err != nil {
		return nil, fmt.Errorf("edge: quorum cross-check: %w", err)
	}
	// Health and stats mirror the single-endpoint path: members that
	// served the agreed index are credited and healed; members that
	// served something else (a frozen or tampering edge the quorum
	// outvoted) are demoted so later reads — quorum or not — stop
	// preferring them, and an outvoted index the acceptance rule calls
	// stale against the agreed one counts as a stale rejection.
	// Transport failures were noted by the adapter.
	winner := res.Index.Digest()
	for _, src := range sources {
		switch {
		case src.got == nil:
		case src.got.Digest() == winner:
			c.noteServed(src.ep, 0)
		default:
			if _, _, err := index.AcceptIndex(floor, src.got, c.TrustRing); errors.Is(err, index.ErrStale) {
				c.mu.Lock()
				c.stats.RejectedStale++
				c.mu.Unlock()
			}
			c.noteFailure(src.ep)
		}
	}
	return res.Index, nil
}

// quorumSource adapts one endpoint to quorum.Source, recording the
// outcome for post-agreement health bookkeeping.
type quorumSource struct {
	c   *FailoverClient
	ep  int           // index into c.Endpoints
	got *index.Signed // the endpoint's (unverified) response, if any
	// ctx carries the quorum read's trace through the ctx-free
	// quorum.Source interface. The adapter lives for exactly one Read
	// call, so the usual keep-contexts-out-of-structs rule does not
	// bite here.
	ctx context.Context
}

func (s *quorumSource) FetchIndex() (*index.Signed, error) {
	signed, _, err := s.c.Endpoints[s.ep].Fetcher.FetchIndexTaggedCtx(s.ctx)
	if err != nil {
		s.c.noteFailure(s.ep)
		return nil, err
	}
	s.got = signed
	return signed, nil
}

// accept runs signed through index.AcceptIndex against the client's
// floor and, when it passes, commits the new floor together with the
// decoded index. The signature check and decode run outside c.mu, so
// concurrent package fetches never wait on a verification; only the
// compare-and-commit is locked. If another fetch moved the floor in
// between, the floor step is re-run against the floor now in force, so
// the client's view still never moves backwards. It books every
// refusal into the stats and returns the floor in force afterwards.
func (c *FailoverClient) accept(signed *index.Signed) (index.Floor, error) {
	c.mu.Lock()
	base := c.floor
	c.mu.Unlock()
	ix, next, err := index.AcceptIndex(base, signed, c.TrustRing)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && c.floor != base {
		next, err = c.floor.Step(ix, signed)
	}
	switch {
	case err == nil:
		c.floor, c.cachedIx = next, ix
	case errors.Is(err, index.ErrStale), errors.Is(err, index.ErrFork):
		c.stats.RejectedStale++
	case !errors.Is(err, index.ErrFormat):
		c.stats.RejectedSignature++
	}
	return c.floor, err
}

// FetchPackage implements pkgmgr.Source: the bytes are verified against
// the entry hash in the client's verified index before they are
// returned, trying endpoints in latency order. A replica serving
// tampered bytes costs one failover, never an unverified byte. When
// every endpoint is rejected, the mismatch may mean this client's
// cached index is simply stale (the origin republished and the fleet
// moved on), so the index is revalidated once and the fetch retried
// against the fresh entry before the failure is final. With a PkgCache
// the returned bytes may be the cached entry itself, so they are
// read-only.
func (c *FailoverClient) FetchPackage(name string) ([]byte, error) {
	return c.FetchPackageCtx(context.Background(), name)
}

// FetchPackageCtx is FetchPackage as a "client.package" span (see
// FetchIndexCtx).
func (c *FailoverClient) FetchPackageCtx(ctx context.Context, name string) (_ []byte, err error) {
	ctx, sp := trace.Start(ctx, "client.package")
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	sp.SetTier("client")
	sp.SetAttr("package", name)
	if len(c.Endpoints) == 0 {
		return nil, ErrNoEndpoints
	}
	entry, err := c.entryFor(ctx, name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.PackageFetches++
	c.mu.Unlock()
	raw, firstErr := c.fetchPackageVerified(ctx, name, entry)
	if firstErr == nil {
		return raw, nil
	}
	if _, err := c.FetchIndexCtx(ctx); err != nil {
		return nil, firstErr
	}
	c.mu.Lock()
	ix := c.cachedIx
	c.mu.Unlock()
	fresh, err := ix.Lookup(name)
	if err != nil || (fresh.Hash == entry.Hash && fresh.Size == entry.Size) {
		// The package vanished, or the entry is unchanged: the original
		// failure stands.
		return nil, firstErr
	}
	return c.fetchPackageVerified(ctx, name, fresh)
}

// fetchPackageVerified tries endpoints in latency order until one
// serves bytes matching the given index entry. With a PkgCache, exact
// cached bytes short-circuit the network entirely, and each endpoint
// is pulled differentially against the diff base PkgCache holds — pull
// degrades any differential failure to a full fetch from the same
// endpoint, so the failover semantics are unchanged.
func (c *FailoverClient) fetchPackageVerified(ctx context.Context, name string, entry index.Entry) ([]byte, error) {
	if c.PkgCache != nil {
		if raw, ok := tsr.GetVerified(c.PkgCache, cacheKey(entry.Hash), entry); ok {
			c.mu.Lock()
			c.stats.CacheHits++
			c.mu.Unlock()
			return raw, nil
		}
	}
	var errs []error
	for attempt, i := range c.rank() {
		ep := c.Endpoints[i]
		p, err := pull(ctx, ep.Fetcher, c.PkgCache, name, entry, false)
		// Charge what moved: the changed chunks of a differential pull,
		// the whole package of a full fetch.
		if p.diffed {
			c.charge(ep, p.ledger.BytesFetched)
		}
		if p.full {
			c.charge(ep, entry.Size)
		}
		c.mu.Lock()
		switch {
		case p.diffed:
			c.stats.DiffFetches++
		case p.based:
			c.stats.DiffFallbacks++
		}
		if errors.Is(err, errWrongBytes) {
			c.stats.RejectedBytes++
		}
		c.mu.Unlock()
		if err != nil {
			c.noteFailure(i)
			errs = append(errs, fmt.Errorf("%s: %w", ep.Name, err))
			continue
		}
		c.noteServed(i, attempt)
		return p.raw, nil
	}
	return nil, fmt.Errorf("%w: package %s: %w", ErrAllEndpointsFailed, name, errors.Join(errs...))
}

// entryFor looks the package up in the verified index, fetching the
// index first when none is cached and refreshing once when the name is
// unknown.
func (c *FailoverClient) entryFor(ctx context.Context, name string) (index.Entry, error) {
	c.mu.Lock()
	ix := c.cachedIx
	c.mu.Unlock()
	if ix == nil {
		if _, err := c.FetchIndexCtx(ctx); err != nil {
			return index.Entry{}, err
		}
		c.mu.Lock()
		ix = c.cachedIx
		c.mu.Unlock()
	}
	if e, err := ix.Lookup(name); err == nil {
		return e, nil
	}
	if _, err := c.FetchIndexCtx(ctx); err != nil {
		return index.Entry{}, err
	}
	c.mu.Lock()
	ix = c.cachedIx
	c.mu.Unlock()
	return ix.Lookup(name)
}
