package store

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// memShards is the shard fan-out of Mem. Keys hash onto shards so
// concurrent refresh workers, serving-path reads, and edge pull-throughs
// contend on independent locks instead of one global mutex.
const memShards = 32

// Mem is a sharded in-memory Store. The zero budget stores everything;
// a positive budget turns it into a byte-bounded LRU cache. The Tamper
// and Snapshot/Restore hooks let tests and experiments play the §5.5
// cache attacks against it.
type Mem struct {
	budget    int64
	pins      []string      // pinned key prefixes (see Pinner); set before sharing
	clock     atomic.Uint64 // logical access clock driving LRU eviction
	bytes     atomic.Int64
	evictions atomic.Int64
	evictMu   sync.Mutex // serializes eviction sweeps
	shards    [memShards]memShard
}

type memShard struct {
	mu   sync.RWMutex
	data map[string]*memEntry
}

type memEntry struct {
	raw   []byte
	atime atomic.Uint64
}

// NewMem returns an empty unbounded store.
func NewMem() *Mem { return NewMemBudget(0) }

// NewMemBudget returns an empty store that evicts least-recently-used
// entries once its contents exceed budget bytes (0 = unbounded).
func NewMemBudget(budget int64) *Mem {
	m := &Mem{budget: budget}
	for i := range m.shards {
		m.shards[i].data = make(map[string]*memEntry)
	}
	return m
}

func shardOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % memShards)
}

// Pin implements Pinner.
func (m *Mem) Pin(prefix string) { m.pins = append(m.pins, prefix) }

// Put implements Store, keeping data itself as the stored value. Under
// a budget, an unpinned blob larger than the whole budget is dropped
// silently — caching it would evict everything else for one entry that
// cannot even fit.
func (m *Mem) Put(key string, data []byte) error {
	if m.budget > 0 && int64(len(data)) > m.budget && !pinned(m.pins, key) {
		return nil
	}
	e := &memEntry{raw: data}
	e.atime.Store(m.clock.Add(1))
	s := &m.shards[shardOf(key)]
	s.mu.Lock()
	if old, ok := s.data[key]; ok {
		m.bytes.Add(int64(len(data)) - int64(len(old.raw)))
	} else {
		m.bytes.Add(int64(len(data)))
	}
	s.data[key] = e
	s.mu.Unlock()
	m.maybeEvict()
	return nil
}

// Open implements Streamer. Get and the stream Open returns both hand
// out the stored slice itself, without a copy: a stored value is never
// written after Put (Tamper swaps in a mutated copy), so a Get result
// or an open stream keeps exactly the bytes it was given.
func (m *Mem) Open(key string) (io.ReadCloser, int64, error) {
	raw, err := m.Get(key)
	if err != nil {
		return nil, 0, err
	}
	return io.NopCloser(bytes.NewReader(raw)), int64(len(raw)), nil
}

// Get implements Store, returning the stored value itself and marking
// it used.
func (m *Mem) Get(key string) ([]byte, error) {
	s := &m.shards[shardOf(key)]
	s.mu.RLock()
	e, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	e.atime.Store(m.clock.Add(1))
	return e.raw, nil
}

// Delete implements Store.
func (m *Mem) Delete(key string) error {
	s := &m.shards[shardOf(key)]
	s.mu.Lock()
	if e, ok := s.data[key]; ok {
		m.bytes.Add(-int64(len(e.raw)))
		delete(s.data, key)
	}
	s.mu.Unlock()
	return nil
}

// Stat implements Stater.
func (m *Mem) Stat(key string) (Info, error) {
	s := &m.shards[shardOf(key)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.data[key]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return Info{Key: key, Size: int64(len(e.raw))}, nil
}

// Iterate implements Iterable.
func (m *Mem) Iterate(fn func(Info) bool) error {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		infos := make([]Info, 0, len(s.data))
		for k, e := range s.data {
			infos = append(infos, Info{Key: k, Size: int64(len(e.raw))})
		}
		s.mu.RUnlock()
		for _, info := range infos {
			if !fn(info) {
				return nil
			}
		}
	}
	return nil
}

// Stats implements Monitored.
func (m *Mem) Stats() Stats {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.data)
		s.mu.RUnlock()
	}
	return Stats{Entries: n, Bytes: m.bytes.Load(), Evictions: m.evictions.Load()}
}

// Len returns the number of stored entries.
func (m *Mem) Len() int { return m.Stats().Entries }

// maybeEvict drops least-recently-used entries until the budget holds.
func (m *Mem) maybeEvict() {
	if m.budget <= 0 || m.bytes.Load() <= m.budget {
		return
	}
	m.evictMu.Lock()
	defer m.evictMu.Unlock()
	over := m.bytes.Load() - m.budget
	if over <= 0 {
		return
	}
	var cands []lruCandidate
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k, e := range s.data {
			if pinned(m.pins, k) {
				continue
			}
			cands = append(cands, lruCandidate{key: k, size: int64(len(e.raw)), atime: e.atime.Load()})
		}
		s.mu.RUnlock()
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].atime < cands[b].atime })
	for _, c := range cands {
		if over <= 0 {
			break
		}
		s := &m.shards[shardOf(c.key)]
		s.mu.Lock()
		if e, ok := s.data[c.key]; ok {
			// Skip entries touched since the scan: they are no longer
			// the cold end.
			if e.atime.Load() != c.atime {
				s.mu.Unlock()
				continue
			}
			m.bytes.Add(-int64(len(e.raw)))
			delete(s.data, c.key)
			over -= int64(len(e.raw))
			m.evictions.Add(1)
		}
		s.mu.Unlock()
	}
}

// --- §5.5 adversary hooks ----------------------------------------------

// Tamper flips a byte in the stored value — the root adversary
// corrupting the cache. The flipped copy replaces the entry rather than
// being written in place, because Get and Open hand the stored slice
// itself to their callers.
func (m *Mem) Tamper(key string) error {
	s := &m.shards[shardOf(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if len(e.raw) > 0 {
		t := &memEntry{raw: append([]byte(nil), e.raw...)}
		t.raw[len(t.raw)/2] ^= 0xFF
		t.atime.Store(e.atime.Load())
		s.data[key] = t
	}
	return nil
}

// Snapshot copies the full store state (for rollback attacks).
func (m *Mem) Snapshot() map[string][]byte {
	out := make(map[string][]byte)
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for k, e := range s.data {
			out[k] = append([]byte(nil), e.raw...)
		}
		s.mu.RUnlock()
	}
	return out
}

// Restore overwrites the store with a previous snapshot (the rollback
// attack of §5.5: "reverting software packages and the metadata index
// to the outdated versions"). Like Put, it takes ownership of snap's
// values.
func (m *Mem) Restore(snap map[string][]byte) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for k, e := range s.data {
			m.bytes.Add(-int64(len(e.raw)))
			delete(s.data, k)
		}
		s.mu.Unlock()
	}
	for k, v := range snap {
		_ = m.Put(k, v)
	}
}
