// Package snapfreeze exercises the snapfreeze analyzer. The harness
// loads it under tsr/internal/tsr, so the local snapshot and Published
// types are frozen: field writes are legal only inside the designated
// build/publish functions (Published has none — it is built as one
// composite literal).
package snapfreeze

type snapshot struct {
	etag string
	hits int
}

type Published struct {
	etag string
	gen  int
}

type repoLike struct{ snap *snapshot }

// publishLocked is snapshot's designated build site.
func (r *repoLike) publishLocked(next *snapshot) {
	next.etag = "v2"
	next.hits = 0
	r.snap = next
}

func mutateLive(s *snapshot) {
	s.etag = "v3" // want `snapshot\.etag is written outside`
	s.hits++      // want `snapshot\.hits is written outside`
}

// Publish builds a Published without assigning a field.
func Publish(prev *Published, etag string) Published {
	return Published{etag: etag, gen: prev.gen + 1}
}

func drift(p *Published) {
	p.gen++ // want `Published\.gen is written outside`
}

// scratch shares field names with snapshot but is not frozen: writes
// anywhere are fine.
type scratch struct{ etag string }

func build(s *scratch) {
	s.etag = "ok"
}
