// Package snapfreeze exercises the snapfreeze analyzer. The harness
// loads it under tsr/internal/tsr, so the local snapshot, Published and
// wire-memo types are frozen: field writes are legal only inside the
// designated build/publish/fill functions (Published has none — it is
// built as one composite literal).
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

// wireMemo is a generation's lazily built wire forms: fillIndex, run
// once under its sync.Once, is the only place its fields are set.
type wireMemo struct {
	signature string
	indexGz   []byte
}

type deltaWire struct{ raw []byte }

func (m *wireMemo) fillIndex(sig string) {
	m.signature = sig
	m.indexGz = []byte(sig)
}

func (d *deltaWire) fill(raw []byte) {
	d.raw = raw
}

// serve is a request handler: it may read the memo, never write it.
func serve(m *wireMemo, d *deltaWire) {
	m.indexGz = nil // want `wireMemo\.indexGz is written outside`
	d.raw = nil     // want `deltaWire\.raw is written outside`
}

// scratch shares field names with snapshot but is not frozen: writes
// anywhere are fine.
type scratch struct{ etag string }

func build(s *scratch) {
	s.etag = "ok"
}
