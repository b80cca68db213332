package flight

import (
	"testing"
	"time"
)

// Joined reports how many callers share key's flight, the leader
// included; 0 when no flight for key is open.
func (g *Group[V]) Joined(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.joined
	}
	return 0
}

// awaitJoined blocks until n callers share key's flight. The deadline
// only turns a coalescing bug into a failure instead of a hang.
func awaitJoined[V any](t *testing.T, g *Group[V], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Joined(key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d callers joined the flight for %q, want %d", g.Joined(key), key, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
