// Package rotation implements the two-map bound the repository's memos
// share: apk.RunMemo (compressed runs) and keys.Memo (signatures).
// Entries go into the current map;
// when adding one would take the current map past its limit, it becomes
// the old map and the previous old map is dropped. A hit in the old map
// is promoted into the current one, so what is in use survives a
// rotation, and the memo never holds more than two maps' worth.
//
// Unlike a wholesale clear, a rotation keeps the newest generation: an
// entry put just before the bound is still there after it.
package rotation

// Map is a two-map store bounded by the summed cost of the current
// map's values; make one with New. A Map is not safe for concurrent
// use: its callers hold their own lock.
type Map[K comparable, V any] struct {
	cur, old map[K]V
	used     int // cost of cur's values
	limit    int
	cost     func(V) int
}

// New returns an empty Map whose current map rotates out once the cost
// of its values would exceed limit. A nil cost counts each value as 1,
// so limit is then an entry count.
func New[K comparable, V any](limit int, cost func(V) int) Map[K, V] {
	if cost == nil {
		cost = func(V) int { return 1 }
	}
	return Map[K, V]{limit: limit, cost: cost}
}

// Get returns key's value, promoting it out of the old map.
func (r *Map[K, V]) Get(key K) (V, bool) {
	v, ok := r.cur[key]
	if !ok {
		if v, ok = r.old[key]; ok {
			r.Put(key, v)
		}
	}
	return v, ok
}

// Put stores v under key, rotating the maps when the current one is
// full.
func (r *Map[K, V]) Put(key K, v V) {
	delete(r.old, key)
	if prev, ok := r.cur[key]; ok {
		r.used -= r.cost(prev)
	} else if r.used+r.cost(v) > r.limit && len(r.cur) > 0 {
		r.old, r.cur, r.used = r.cur, nil, 0
	}
	if r.cur == nil {
		r.cur = make(map[K]V)
	}
	r.cur[key] = v
	r.used += r.cost(v)
}

// Range calls fn with every entry of both maps, in no set order.
//
//lint:allow deadexport tests look inside the maps they bound
func (r *Map[K, V]) Range(fn func(key K, v V)) {
	for k, v := range r.cur {
		fn(k, v)
	}
	for k, v := range r.old {
		fn(k, v)
	}
}

// Len returns the number of entries in both maps.
func (r *Map[K, V]) Len() int { return len(r.cur) + len(r.old) }
