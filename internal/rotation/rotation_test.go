package rotation

import "testing"

// TestRotationKeepsNewestGeneration: an entry put just before the
// bound survives the rotation the next put causes, an entry in use is
// promoted across rotations, and both maps together never hold more
// than twice the limit.
func TestRotationKeepsNewestGeneration(t *testing.T) {
	const limit = 4
	m := New[int, string](limit, nil)
	for i := 0; i < limit; i++ {
		m.Put(i, "v")
	}
	m.Put(limit, "v") // rotates: 0..limit-1 become the old map
	if _, ok := m.Get(limit - 1); !ok {
		t.Fatal("the entry put just before the bound was dropped by the rotation")
	}
	for i := limit + 1; i < 10*limit; i++ {
		m.Put(i, "v")
		if _, ok := m.Get(limit - 1); !ok {
			t.Fatalf("the entry in use was dropped after %d puts", i)
		}
		if n := m.Len(); n > 2*limit {
			t.Fatalf("holds %d entries, bound %d", n, 2*limit)
		}
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("an entry unused for many rotations is still held")
	}
}

// TestRotationCost: the limit bounds the summed cost of the current
// map, and replacing a value re-counts it rather than adding to it.
func TestRotationCost(t *testing.T) {
	m := New[string, []byte](10, func(b []byte) int { return len(b) })
	m.Put("a", make([]byte, 6))
	m.Put("a", make([]byte, 6)) // replaced in place, still 6 used
	m.Put("b", make([]byte, 4))
	if m.Len() != 2 {
		t.Fatalf("Len = %d after a replace and one more put, want 2", m.Len())
	}
	m.Put("c", make([]byte, 1)) // 11 > 10: rotates
	held := 0
	m.Range(func(_ string, b []byte) { held += len(b) })
	if held != 11 || m.Len() != 3 {
		t.Fatalf("Range saw %d bytes in %d entries, want 11 in 3", held, m.Len())
	}
	if v, ok := m.Get("a"); !ok || len(v) != 6 {
		t.Fatal("the old map's entry was not returned")
	}
}
