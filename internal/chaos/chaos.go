// Package chaos provides the composed-failure machinery behind the
// fleet-soak experiment: a deterministic, seeded schedule of fault
// events (schedule.go) and a continuous invariant checker that observes
// every client-visible read while the faults compose.
//
// The checker encodes the paper's end-to-end trust claim as runtime
// assertions: no matter what the untrusted middleware between clients
// and the enclave does — frozen, corrupt, or offline edges, crashed
// origins, dead mirrors — a client must never accept unverified bytes,
// never move backwards in index generations, and must converge to the
// origin's generation once the weather clears. A read that *fails* is
// availability, not a violation; a read that *succeeds with wrong
// data* is a violation, and one violation fails the run.
package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/obs"
	"tsr/internal/sched"
	"tsr/internal/trace"
)

// Invariant names, used as the Violation.Invariant discriminator and
// documented in docs/SOAK.md.
const (
	// InvVerifiedBytes: every package body accepted by a client matches
	// the size and SHA-256 of its entry in a verified signed index.
	InvVerifiedBytes = "verified-bytes"
	// InvIndexSignature: every index accepted by a client carries a
	// valid origin signature (checked independently of the client).
	InvIndexSignature = "index-signature"
	// InvMonotoneSequence: per client, accepted index sequences never
	// regress.
	InvMonotoneSequence = "monotone-sequence"
	// InvETagBody: every HTTP 200 package response pairs its strong
	// ETag with exactly the body it serves (ETag == sha256(body)).
	InvETagBody = "etag-matches-body"
	// InvShedContract: every HTTP 429 carries a Retry-After hint.
	InvShedContract = "shed-contract"
	// InvAdmissionBound: the in-flight peak never exceeds the
	// -max-inflight bound the admission gate advertises.
	InvAdmissionBound = "admission-bound"
	// InvRangeConsistent: every HTTP 206 slice is exactly the requested
	// bytes of the full representation, carries the FULL
	// representation's strong ETag (never a hash of the slice), and
	// declares the full length in Content-Range.
	InvRangeConsistent = "range-consistent"
	// InvTraceHeader: every HTTP 200 from an obs-wrapped tier names the
	// trace that served it via a well-formed X-Tsr-Trace-Id header, so
	// any response can be quoted against /debug/traces/{id}.
	InvTraceHeader = "trace-header"
	// InvSchedBound: the global refresh scheduler's busy watermarks
	// never exceed its configured bounds — leased worker slots stay
	// within Workers and admitted jobs within MaxActive, however many
	// tenants churn.
	InvSchedBound = "sched-bound"
	// InvBoundedStaleness: once churn quiesces and replicas resync,
	// every client converges on the origin's current sequence.
	InvBoundedStaleness = "bounded-staleness"
	// InvChunkedPull: a replica that holds a package's previous version
	// pulls its new version as a chunked differential pull, not in full.
	InvChunkedPull = "chunked-pull"
)

// Violation is one observed invariant breach.
type Violation struct {
	Invariant string `json:"invariant"`
	Actor     string `json:"actor"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s[%s]: %s", v.Invariant, v.Actor, v.Detail)
}

// Checker is the continuous invariant checker: every client-visible
// read during a soak is reported to it, and it accumulates violations
// instead of failing fast, so one run surfaces every breach at once.
// All methods are safe for concurrent use from client goroutines.
type Checker struct {
	// Trust verifies index signatures independently of the clients
	// under test — a buggy client cannot vouch for itself.
	Trust *keys.Ring

	mu sync.Mutex
	// lastSeq tracks the highest index sequence accepted per actor.
	lastSeq map[string]uint64
	// entrySizes records, per package name, the body size of every
	// (hash, size) entry seen across accepted index generations — the
	// ground truth for PackageAcceptedAnyGen.
	entrySizes map[string]map[[sha256.Size]byte]int64
	violations []Violation
	checks     int64
}

// NewChecker builds a checker that verifies indexes against ring.
func NewChecker(ring *keys.Ring) *Checker {
	return &Checker{
		Trust:      ring,
		lastSeq:    make(map[string]uint64),
		entrySizes: make(map[string]map[[sha256.Size]byte]int64),
	}
}

func (c *Checker) violate(invariant, actor, format string, args ...any) {
	c.mu.Lock()
	c.violations = append(c.violations, Violation{
		Invariant: invariant,
		Actor:     actor,
		Detail:    fmt.Sprintf(format, args...),
	})
	c.mu.Unlock()
}

func (c *Checker) note(n int64) {
	c.mu.Lock()
	c.checks += n
	c.mu.Unlock()
}

// IndexAccepted checks an index a client accepted: independent
// signature verification, decodability, and per-client sequence
// monotonicity. It returns the decoded index (nil when it failed to
// decode) so the caller can resolve package entries from exactly the
// generation the checker recorded.
func (c *Checker) IndexAccepted(actor string, signed *index.Signed) *index.Index {
	c.note(3)
	if c.Trust != nil {
		if err := signed.VerifySignature(c.Trust); err != nil {
			c.violate(InvIndexSignature, actor, "accepted index fails independent verification: %v", err)
			return nil
		}
	}
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		c.violate(InvIndexSignature, actor, "accepted index does not decode: %v", err)
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range ix.Entries {
		m := c.entrySizes[e.Name]
		if m == nil {
			m = make(map[[sha256.Size]byte]int64)
			c.entrySizes[e.Name] = m
		}
		m[e.Hash] = e.Size
	}
	if prev, ok := c.lastSeq[actor]; ok && ix.Sequence < prev {
		c.violations = append(c.violations, Violation{
			Invariant: InvMonotoneSequence,
			Actor:     actor,
			Detail:    fmt.Sprintf("sequence regressed %d -> %d", prev, ix.Sequence),
		})
		return ix
	}
	c.lastSeq[actor] = ix.Sequence
	return ix
}

// PackageAccepted checks package bytes a client accepted against the
// entry of the verified index it requested them under.
func (c *Checker) PackageAccepted(actor string, entry index.Entry, body []byte) {
	c.note(1)
	if int64(len(body)) != entry.Size || sha256.Sum256(body) != entry.Hash {
		c.violate(InvVerifiedBytes, actor,
			"%s: accepted %d bytes not matching signed entry (size %d)", entry.Name, len(body), entry.Size)
	}
}

// PackageMatchesAnyGen reports whether body matches the (hash, size)
// of name's entry in any accepted index generation. It is the lookup
// half of PackageAcceptedAnyGen, split out so a caller that misses can
// first feed the client's refreshed index through IndexAccepted (a
// republish may have landed between the index read and the package
// read) and then assert.
func (c *Checker) PackageMatchesAnyGen(name string, body []byte) bool {
	sum := sha256.Sum256(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	size, ok := c.entrySizes[name][sum]
	return ok && size == int64(len(body))
}

// PackageAcceptedAnyGen checks package bytes for a name whose content
// legitimately changes across generations (a version-bumped package):
// the bytes must match the entry of SOME accepted index generation.
// The strict PackageAccepted pairing with one entry would race with a
// concurrent republish; freshness is separately enforced by the
// clients (RejectedStale) and by InvBoundedStaleness at quiesce.
func (c *Checker) PackageAcceptedAnyGen(actor, name string, body []byte) {
	c.note(1)
	if c.PackageMatchesAnyGen(name, body) {
		return
	}
	c.violate(InvVerifiedBytes, actor,
		"%s: accepted %d bytes matching no entry of any accepted index generation", name, len(body))
}

// HTTPResponse checks one response from an obs-wrapped HTTP package
// endpoint: a 200 must pair its strong ETag with the body it carries,
// a 429 must carry the Retry-After backoff hint. Other statuses
// (404/503 during churn) are availability, not violations.
func (c *Checker) HTTPResponse(actor string, status int, etag, retryAfter string, body []byte) {
	c.note(1)
	switch status {
	case 200:
		sum := sha256.Sum256(body)
		if want := `"` + hex.EncodeToString(sum[:]) + `"`; etag != want {
			c.violate(InvETagBody, actor, "200 with ETag %s over body hashing to %s", etag, want)
		}
	case 429:
		if retryAfter == "" {
			c.violate(InvShedContract, actor, "429 without Retry-After")
		}
	}
}

// RangeResponse checks one Range response against a full 200
// representation fetched from the same handler under the same ETag
// (the caller pins the pairing with If-Range): a 206 must carry the
// full representation's strong ETag, a Content-Range declaring the
// full length, and body bytes that are exactly that slice of the full
// body. A non-206 (full 200 after a republish, 429, churn-window 5xx)
// is availability, not a violation.
func (c *Checker) RangeResponse(actor string, status int, etag, contentRange string, part, full []byte) {
	c.note(1)
	if status != 206 {
		return
	}
	sum := sha256.Sum256(full)
	if want := `"` + hex.EncodeToString(sum[:]) + `"`; etag != want {
		c.violate(InvRangeConsistent, actor,
			"206 with ETag %s, want the full representation's %s", etag, want)
		return
	}
	var first, last, total int64
	if n, err := fmt.Sscanf(contentRange, "bytes %d-%d/%d", &first, &last, &total); n != 3 || err != nil {
		c.violate(InvRangeConsistent, actor, "206 with malformed Content-Range %q", contentRange)
		return
	}
	if total != int64(len(full)) || first < 0 || last < first || last >= total {
		c.violate(InvRangeConsistent, actor,
			"206 Content-Range %q inconsistent with the %d-byte representation", contentRange, len(full))
		return
	}
	if !bytes.Equal(part, full[first:last+1]) {
		c.violate(InvRangeConsistent, actor,
			"206 body is not bytes %d-%d of the representation it names", first, last)
	}
}

// TraceHeader checks the observability half of a served response:
// every 200 must carry a well-formed X-Tsr-Trace-Id, the handle that
// joins the response to its span tree in /debug/traces. Non-200s are
// exempt — sheds and churn-window failures may bypass tracing.
func (c *Checker) TraceHeader(actor string, status int, traceID string) {
	c.note(1)
	if status != 200 {
		return
	}
	if !trace.ValidTraceID(traceID) {
		c.violate(InvTraceHeader, actor, "200 with %s = %q, want a 32-hex trace ID", trace.HeaderTraceID, traceID)
	}
}

// AdmissionSnapshot checks an obs middleware snapshot against the
// -max-inflight contract: the peak of the in-flight gauge must never
// have exceeded the advertised bound.
func (c *Checker) AdmissionSnapshot(actor string, s obs.Snapshot) {
	c.note(1)
	if s.MaxInflight > 0 && s.PeakInflight > s.MaxInflight {
		c.violate(InvAdmissionBound, actor,
			"peak inflight %d > max inflight %d", s.PeakInflight, s.MaxInflight)
	}
}

// SchedSnapshot checks a refresh-scheduler snapshot against its
// configured bounds: the peak of leased worker slots must never have
// exceeded the shared pool, and the peak of concurrently admitted jobs
// must never have exceeded MaxActive. Unbounded dimensions (0) are
// exempt.
func (c *Checker) SchedSnapshot(actor string, s sched.Snapshot) {
	c.note(1)
	if s.Workers > 0 && s.PeakSlots > s.Workers {
		c.violate(InvSchedBound, actor,
			"peak leased slots %d > worker pool %d", s.PeakSlots, s.Workers)
	}
	if s.MaxActive > 0 && s.PeakActive > s.MaxActive {
		c.violate(InvSchedBound, actor,
			"peak active jobs %d > max active %d", s.PeakActive, s.MaxActive)
	}
}

// Quiesced asserts bounded staleness after the churn schedule drains:
// every actor that accepted at least one index must have converged on
// the origin's current sequence. Returns the number of lagging actors.
func (c *Checker) Quiesced(originSeq uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	lagging := 0
	for actor, seq := range c.lastSeq {
		c.checks++
		if seq != originSeq {
			lagging++
			c.violations = append(c.violations, Violation{
				Invariant: InvBoundedStaleness,
				Actor:     actor,
				Detail:    fmt.Sprintf("converged on sequence %d, origin is at %d", seq, originSeq),
			})
		}
	}
	return lagging
}

// ChunkedPull checks one replica's pull of a package's new version
// while it held the previous one: pulls, the chunked differential pulls
// it made meanwhile, must be at least one. Zero means the pull fell
// back to a full fetch, or never reached the differential path.
func (c *Checker) ChunkedPull(actor string, pulls int64) {
	c.note(1)
	if pulls < 1 {
		c.violate(InvChunkedPull, actor,
			"pulled a new version over its cached previous one with %d chunked differential pulls", pulls)
	}
}

// Checks returns how many invariant assertions ran.
func (c *Checker) Checks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checks
}

// Violations returns a copy of every breach observed so far.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}
