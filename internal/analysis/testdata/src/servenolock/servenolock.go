// Package servenolock exercises the servenolock analyzer. The harness
// loads it under tsr/internal/tsr; the serving-path methods on Repo
// and everything they (statically) call must not acquire Repo.mu,
// while the refresh side remains free to lock.
package servenolock

import "sync"

type state struct{ etag string }

type Repo struct {
	mu   sync.RWMutex
	snap *state
}

func (r *Repo) FetchIndex() *state {
	return r.lookup()
}

// lookup is only reachable from FetchIndex, so the acquisition is
// attributed to that root.
func (r *Repo) lookup() *state {
	r.mu.RLock() // want `serving path acquires Repo\.mu \(reachable from FetchIndex\)`
	defer r.mu.RUnlock()
	return r.snap
}

func (r *Repo) PackageETag() string {
	return r.etagLocked()
}

func (r *Repo) etagLocked() string {
	if !r.mu.TryRLock() { // want `serving path acquires Repo\.mu \(reachable from PackageETag\)`
		return ""
	}
	defer r.mu.RUnlock()
	return r.snap.etag
}

// FetchIndexDeltaCtx is a root itself: no context-free wrapper leads
// to it, and its acquisition is still flagged.
func (r *Repo) FetchIndexDeltaCtx() *state {
	r.mu.RLock() // want `serving path acquires Repo\.mu \(reachable from FetchIndexDeltaCtx\)`
	defer r.mu.RUnlock()
	return r.snap
}

// Refresh is the write side: not a serving root, free to lock.
func (r *Repo) Refresh() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snap = &state{etag: "next"}
}

// CacheStats as a free function is not a serving root — roots are
// methods on the repository — and nothing on the serving path calls
// it, so its lock is legal.
func CacheStats(r *Repo) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.snap == nil {
		return 0
	}
	return 1
}
