// Package quorum implements TSR's Byzantine-tolerant metadata reads
// (§4.5): TSR never trusts an individual mirror; it reads 2f+1 mirrors
// and relies only on the index version that at least f+1 mirrors agree
// on. Following the paper's implementation note on Figure 13, the
// reader takes the fastest f+1 responses first and widens to additional
// mirrors only if they disagree, so latency tracks the nearby mirrors.
package quorum

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
)

// Error sentinels.
var (
	ErrNoQuorum  = errors.New("quorum: no f+1 mirrors agree on an index")
	ErrNoMirrors = errors.New("quorum: no mirrors configured")
)

// Source serves a signed metadata index (implemented by *mirror.Mirror).
type Source interface {
	FetchIndex() (*index.Signed, error)
}

// Member is one mirror in the read set.
type Member struct {
	Host      string
	Continent netsim.Continent
	Source    Source
}

// Reader performs quorum reads over a member set.
type Reader struct {
	// Local is the continent TSR runs on (Europe in the paper's setup).
	Local netsim.Continent
	// Link models request latency; if nil, transfers are instantaneous.
	Link *netsim.LinkModel
	// Clock is advanced by the modeled elapsed time of each read.
	Clock netsim.Clock
	// TrustRing verifies index signatures (the distribution's key).
	// Indexes failing verification cost time but never vote. Read
	// fails closed (index.ErrUntrusted) without one.
	TrustRing *keys.Ring
	// Members is the mirror set from the security policy.
	Members []Member
}

// MaxFaulty returns f for the configured member count.
func (r *Reader) MaxFaulty() int {
	if len(r.Members) == 0 {
		return 0
	}
	return (len(r.Members) - 1) / 2
}

// Result describes a completed quorum read.
type Result struct {
	// Index is the agreed signed index.
	Index *index.Signed
	// Elapsed is the modeled wall-clock time of the read: the latency
	// of the slowest mirror that had to be consulted.
	Elapsed time.Duration
	// Contacted is how many mirrors were consulted.
	Contacted int
	// Agreeing is how many consulted mirrors served the winning index.
	Agreeing int
}

// response is one mirror's (possibly failed) answer with its modeled
// latency.
type response struct {
	member  Member
	signed  *index.Signed
	digest  [32]byte
	err     error
	latency time.Duration
}

// Read performs one quorum read. It fails with ErrNoQuorum if fewer
// than f+1 mirrors agree on a verifiable index, and with
// index.ErrUntrusted when the reader has no ring to verify votes with.
func (r *Reader) Read() (*Result, error) {
	n := len(r.Members)
	if n == 0 {
		return nil, ErrNoMirrors
	}
	if r.TrustRing == nil {
		return nil, fmt.Errorf("quorum: %w", index.ErrUntrusted)
	}
	f := r.MaxFaulty()
	need := f + 1

	// Model: all requests are issued in parallel; each response arrives
	// after its link latency. Responses failing signature verification
	// do not vote.
	responses := make([]response, 0, n)
	for _, m := range r.Members {
		resp := response{member: m}
		resp.signed, resp.err = m.Source.FetchIndex()
		var size int64
		if resp.signed != nil {
			size = resp.signed.Size()
			// Signature-only check: the winning index is decoded once
			// by the caller, not per vote.
			if err := resp.signed.VerifySignature(r.TrustRing); err != nil {
				resp.err = fmt.Errorf("mirror %s: %w", m.Host, err)
				resp.signed = nil
			} else {
				resp.digest = resp.signed.Digest()
			}
		}
		if r.Link != nil {
			// The fastest f+1 transfers run concurrently and share the
			// paths' bandwidth, which is what makes larger quorums pay
			// more than a single mirror read (Figure 13's growth).
			resp.latency = r.Link.RequestResponseShared(r.Local, m.Continent, size, need)
		}
		responses = append(responses, resp)
	}
	sort.Slice(responses, func(i, j int) bool { return responses[i].latency < responses[j].latency })

	votes := make(map[[32]byte]int)
	var elapsed time.Duration
	for k, resp := range responses {
		if resp.latency > elapsed {
			elapsed = resp.latency
		}
		if resp.err == nil && resp.signed != nil {
			votes[resp.digest]++
		}
		// Quorum check only once the fastest f+1 responses are in
		// (contacting fewer can never produce f+1 matching votes).
		if k+1 < need {
			continue
		}
		if resp.err == nil && votes[resp.digest] >= need {
			r.sleep(elapsed)
			return &Result{
				Index:     resp.signed,
				Elapsed:   elapsed,
				Contacted: k + 1,
				Agreeing:  votes[resp.digest],
			}, nil
		}
		// Also re-check earlier digests: the (k+1)-th response may have
		// completed a quorum formed by earlier voters.
		for d, v := range votes {
			if v >= need {
				winner := findByDigest(responses[:k+1], d)
				r.sleep(elapsed)
				return &Result{
					Index:     winner,
					Elapsed:   elapsed,
					Contacted: k + 1,
					Agreeing:  v,
				}, nil
			}
		}
	}
	r.sleep(elapsed)
	return nil, fmt.Errorf("%w: %d mirrors, need %d matching votes, votes %v",
		ErrNoQuorum, n, need, voteCounts(votes))
}

func (r *Reader) sleep(d time.Duration) {
	if r.Clock != nil && d > 0 {
		r.Clock.Sleep(d)
	}
}

func findByDigest(responses []response, d [32]byte) *index.Signed {
	for _, resp := range responses {
		if resp.err == nil && resp.signed != nil && resp.digest == d {
			return resp.signed
		}
	}
	return nil
}

func voteCounts(votes map[[32]byte]int) []int {
	out := make([]int, 0, len(votes))
	for _, v := range votes {
		out = append(out, v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
