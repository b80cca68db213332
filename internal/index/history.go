package index

// Generation is one retained published index generation, kept so a
// server (origin or edge — both retain the same window, which is what
// lets edges chain behind edges with origin-identical sync behavior)
// can answer GET /index/delta?since=<etag> for recent bases.
type Generation struct {
	ETag  string
	Index *Index
}

// HistoryWindow is how many generations the delta endpoint serves
// from. A caller whose base fell out of the window falls back to a
// full index fetch.
const HistoryWindow = 8

// AppendGeneration appends a newly published generation to a retained
// history, copy-on-write: the input slice is never mutated, so a
// previously published snapshot keeps its own view. Republishing the
// current generation (same ETag as the last entry) returns the input
// unchanged, and the result is capped at HistoryWindow entries.
func AppendGeneration(hist []Generation, etag string, ix *Index) []Generation {
	if n := len(hist); n > 0 && hist[n-1].ETag == etag {
		return hist
	}
	next := make([]Generation, 0, len(hist)+1)
	next = append(next, hist...)
	next = append(next, Generation{ETag: etag, Index: ix})
	if len(next) > HistoryWindow {
		next = next[len(next)-HistoryWindow:]
	}
	return next
}

// FindGeneration returns the position in hist of the generation
// published under etag.
func FindGeneration(hist []Generation, etag string) (int, bool) {
	for i, gen := range hist {
		if gen.ETag == etag {
			return i, true
		}
	}
	return 0, false
}
