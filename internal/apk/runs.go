package apk

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"tsr/internal/rotation"
)

// RunMemoBytes is the compressed bytes each of a RunMemo's two maps
// holds before they rotate, so a RunMemo keeps at most about
// 2 × RunMemoBytes of runs.
const RunMemoBytes = 8 << 20

// runSeenCap is the number of run keys each of a RunMemo's two
// sighting maps holds before they rotate (32-byte keys: about 0.5 MB
// for both, with map overhead).
const runSeenCap = 4096

// RunMemo remembers compressed data-member runs, keyed by the SHA-256
// of their uncompressed tar bytes. A run is deflated by a fresh writer
// at a fixed level, so a remembered run is byte-for-byte what deflating
// it again would give: a repository that re-sanitizes a package whose
// version changed but most of whose files did not deflates only the
// runs that changed.
//
// A run is admitted on its second sighting: the first only records its
// key. Most runs a refresh compresses never recur, and holding their
// bytes would grow the heap for nothing.
//
// Both the runs and the sightings are bounded by a two-map rotation
// (package rotation). A RunMemo is safe for concurrent use.
type RunMemo struct {
	mu   sync.Mutex
	runs rotation.Map[[32]byte, []byte]
	seen rotation.Map[[32]byte, struct{}]

	hits, deflated, deflatedBytes atomic.Int64
}

// RunStats counts what a RunMemo has served.
type RunStats struct {
	// Hits is the runs copied from the memo.
	Hits int64
	// Deflated is the runs compressed because the memo lacked them,
	// and DeflatedBytes their uncompressed size.
	Deflated, DeflatedBytes int64
}

// NewRunMemo returns an empty run memo.
func NewRunMemo() *RunMemo { return newRunMemo(RunMemoBytes, runSeenCap) }

func newRunMemo(limitBytes, seenCap int) *RunMemo {
	return &RunMemo{
		runs: rotation.New[[32]byte](limitBytes, func(z []byte) int { return len(z) }),
		seen: rotation.New[[32]byte, struct{}](seenCap, nil),
	}
}

// Stats returns the memo's counts so far.
func (m *RunMemo) Stats() RunStats {
	return RunStats{Hits: m.hits.Load(), Deflated: m.deflated.Load(), DeflatedBytes: m.deflatedBytes.Load()}
}

// deflate appends run, compressed as one run, to dst: copied from the
// memo when it holds the run, otherwise deflated. A nil memo deflates.
func (m *RunMemo) deflate(dst *bytes.Buffer, run []byte) error {
	if m == nil {
		return deflateRun(dst, run)
	}
	key := sha256.Sum256(run)
	m.mu.Lock()
	z, hit := m.runs.Get(key)
	admit := false
	if !hit {
		if _, admit = m.seen.Get(key); !admit {
			m.seen.Put(key, struct{}{})
		}
	}
	m.mu.Unlock()
	if hit {
		m.hits.Add(1)
		dst.Write(z)
		return nil
	}

	// Deflate runs outside the lock; two callers that miss on the same
	// run both compress it and store the same bytes.
	start := dst.Len()
	if err := deflateRun(dst, run); err != nil {
		return err
	}
	m.deflated.Add(1)
	m.deflatedBytes.Add(int64(len(run)))
	if admit {
		z := bytes.Clone(dst.Bytes()[start:])
		m.mu.Lock()
		m.runs.Put(key, z)
		m.mu.Unlock()
	}
	return nil
}
