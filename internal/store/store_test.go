package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// stores under test: both implementations must behave identically on
// the shared surface.
func openBoth(t *testing.T) map[string]Store {
	t.Helper()
	fsStore, err := OpenFS(t.TempDir(), FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMem(), "fs": fsStore}
}

func TestPutGetDeleteRoundtrip(t *testing.T) {
	for name, s := range openBoth(t) {
		t.Run(name, func(t *testing.T) {
			key := "r1/san/app@deadbeef"
			if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get absent = %v, want ErrNotFound", err)
			}
			if err := s.Put(key, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(key)
			if err != nil || string(got) != "payload" {
				t.Fatalf("Get = %q, %v", got, err)
			}
			// Overwrite.
			if err := s.Put(key, []byte("payload-2")); err != nil {
				t.Fatal(err)
			}
			if got, _ := s.Get(key); string(got) != "payload-2" {
				t.Fatalf("after overwrite Get = %q", got)
			}
			if err := s.Delete(key); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get deleted = %v, want ErrNotFound", err)
			}
			// Deleting an absent key is a no-op.
			if err := s.Delete(key); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIterateAndStat(t *testing.T) {
	for name, s := range openBoth(t) {
		t.Run(name, func(t *testing.T) {
			want := map[string]int64{"a": 1, "b/two": 2, "c@three": 3}
			for k, n := range want {
				if err := s.Put(k, make([]byte, n)); err != nil {
					t.Fatal(err)
				}
			}
			it := s.(Iterable)
			got := map[string]int64{}
			if err := it.Iterate(func(i Info) bool { got[i.Key] = i.Size; return true }); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("Iterate saw %v, want %v", got, want)
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("Iterate[%q] = %d, want %d", k, got[k], n)
				}
				info, err := s.(Stater).Stat(k)
				if err != nil || info.Size != n {
					t.Fatalf("Stat(%q) = %+v, %v", k, info, err)
				}
			}
			if _, err := s.(Stater).Stat("absent"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Stat absent = %v", err)
			}
		})
	}
}

// TestBudgetEvictsLRU: with a byte budget, the coldest entries go
// first, entries larger than the whole budget are not stored, and a
// re-accessed entry survives eviction of its colder peers.
func TestBudgetEvictsLRU(t *testing.T) {
	fsStore, err := OpenFS(t.TempDir(), FSOptions{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"mem": NewMemBudget(100), "fs": fsStore} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 4; i++ {
				if err := s.Put(fmt.Sprintf("k%d", i), make([]byte, 25)); err != nil {
					t.Fatal(err)
				}
			}
			// Touch k0 so k1 is now the cold end, then push it over.
			if _, err := s.Get("k0"); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("k4", make([]byte, 25)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("k1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("cold k1 survived, err=%v", err)
			}
			for _, k := range []string{"k0", "k2", "k3", "k4"} {
				if _, err := s.Get(k); err != nil {
					t.Fatalf("%s evicted unexpectedly: %v", k, err)
				}
			}
			// Oversized blob: dropped silently, nothing else evicted.
			if err := s.Put("huge", make([]byte, 101)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("huge"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("oversized blob cached, err=%v", err)
			}
			st := s.(Monitored).Stats()
			if st.Bytes > 100 || st.Evictions == 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestConcurrentAccess(t *testing.T) {
	fsStore, err := OpenFS(t.TempDir(), FSOptions{Budget: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"mem": NewMemBudget(1 << 16), "fs": fsStore} {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("g%d/k%d", g, i%10)
						_ = s.Put(key, []byte(key))
						if raw, err := s.Get(key); err == nil && string(raw) != key {
							t.Errorf("Get(%q) = %q", key, raw)
						}
						if i%7 == 0 {
							_ = s.Delete(key)
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// --- FS-specific durability scenarios ----------------------------------

// TestFSReopenKeepsEntries: a clean reopen (restart) rebuilds the index
// from disk and every entry reads back.
func TestFSReopenKeepsEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"r1/orig/a@00ff", "r1/san/a@1122", "tsrstate/r1"}
	for _, k := range keys {
		if err := s.Put(k, []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kept, dropped := s2.ScrubReport()
	if kept != len(keys) || dropped != 0 {
		t.Fatalf("scrub kept=%d dropped=%d", kept, dropped)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, err := s2.Get(k)
		if err != nil || string(got) != "v:"+k {
			t.Fatalf("after reopen Get(%q) = %q, %v", k, got, err)
		}
	}
}

// TestFSCrashBetweenTempWriteAndRename: a kill after the temp file is
// written but before the rename must leave no corrupt entry visible
// after restart — the torn temp file is scrubbed away and the key
// reads as a clean miss (or its previous value, if one existed).
// frame renders the on-disk representation of one entry: magic, key
// length, payload length, payload CRC, key, payload.
func frame(key string, data []byte) []byte {
	buf := make([]byte, fsHeaderLen+len(key)+len(data))
	copy(buf[0:4], fsMagic)
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(key)))
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(data)))
	binary.BigEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(data))
	copy(buf[fsHeaderLen:], key)
	copy(buf[fsHeaderLen+len(key):], data)
	return buf
}

// TestFSPutWritesFrame pins the on-disk bytes of an entry.
func TestFSPutWritesFrame(t *testing.T) {
	s, err := OpenFS(t.TempDir(), FSOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{nil, []byte("payload"), bytes.Repeat([]byte{0xA5}, 1<<20)} {
		key := fmt.Sprintf("pkg@%d", len(data))
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(s.pathFor(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, frame(key, data)) {
			t.Fatalf("%s: on-disk frame differs (%d bytes, want %d)", key, len(got), fsHeaderLen+len(key)+len(data))
		}
	}
}

func TestFSCrashBetweenTempWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("stable", []byte("old-value")); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the frame bytes of a new entry (and of an
	// overwrite of "stable") land in temp files that never get renamed.
	for _, crash := range []struct{ key, val string }{
		{"never-renamed", "torn"},
		{"stable", "new-value-lost-in-crash"},
	} {
		parent := filepath.Dir(s.pathFor(crash.key))
		if err := os.MkdirAll(parent, 0o755); err != nil {
			t.Fatal(err)
		}
		tmp, err := os.CreateTemp(parent, ".put-*"+fsTmpSuffix)
		if err != nil {
			t.Fatal(err)
		}
		// Half a frame: exactly what a mid-write kill leaves behind.
		full := frame(crash.key, []byte(crash.val))
		if _, err := tmp.Write(full[:len(full)/2]); err != nil {
			t.Fatal(err)
		}
		tmp.Close()
	}

	s2, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, dropped := s2.ScrubReport(); dropped != 2 {
		t.Fatalf("scrub dropped %d temp leftovers, want 2", dropped)
	}
	if _, err := s2.Get("never-renamed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn write became visible: %v", err)
	}
	got, err := s2.Get("stable")
	if err != nil || string(got) != "old-value" {
		t.Fatalf("previous value lost: %q, %v", got, err)
	}
}

// TestFSScrubDropsCorruptAndMisplaced: flipped bytes fail the CRC and
// a file copied under another key's path fails the key echo; both are
// dropped at boot instead of being served.
func TestFSScrubDropsCorruptAndMisplaced(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("victim", []byte("payload-payload-payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("other", []byte("other-bytes")); err != nil {
		t.Fatal(err)
	}
	// Bitrot: flip one payload byte in place.
	vpath := s.pathFor("victim")
	raw, err := os.ReadFile(vpath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xFF
	if err := os.WriteFile(vpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Entry swap: copy "other"'s (valid) file over a third key's path.
	swapped, err := os.ReadFile(s.pathFor("other"))
	if err != nil {
		t.Fatal(err)
	}
	spath := s.pathFor("swapped-in")
	if err := os.MkdirAll(filepath.Dir(spath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spath, swapped, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFS(dir, FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("victim"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt entry survived scrub: %v", err)
	}
	if _, err := s2.Get("swapped-in"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("misplaced entry survived scrub: %v", err)
	}
	if got, err := s2.Get("other"); err != nil || string(got) != "other-bytes" {
		t.Fatalf("honest entry lost: %q, %v", got, err)
	}
}

// TestFSGetDetectsLiveTamper: corruption landing after the boot scrub
// is caught by the per-read CRC check; the entry degrades to a miss.
func TestFSGetDetectsLiveTamper(t *testing.T) {
	s, err := OpenFS(t.TempDir(), FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("sanitized-package-bytes")); err != nil {
		t.Fatal(err)
	}
	path := s.pathFor("k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tampered read = %v, want ErrNotFound", err)
	}
	// Healed by a fresh Put, as the caller's miss path would do.
	if err := s.Put("k", []byte("sanitized-package-bytes")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("k"); err != nil || string(got) != "sanitized-package-bytes" {
		t.Fatalf("after heal: %q, %v", got, err)
	}
}

// TestMemTamperSnapshotRestore keeps the §5.5 adversary hooks working
// on the sharded store.
func TestMemTamperSnapshotRestore(t *testing.T) {
	m := NewMem()
	if err := m.Put("a", []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	// Open shares the stored slice, so Tamper must not write into it: a
	// stream opened before the attack reads what it opened, a later
	// one reads the tampered value.
	before, _, err := m.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Tamper("a"); err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(before); string(got) != "aaaa" {
		t.Fatalf("stream opened before Tamper read %q", got)
	}
	if got, _ := m.Get("a"); string(got) == "aaaa" {
		t.Fatal("Tamper did not change the value")
	}
	after, _, err := m.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(after); string(got) == "aaaa" {
		t.Fatal("stream opened after Tamper read the original value")
	}
	if err := m.Tamper("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Tamper absent = %v", err)
	}
	if err := m.Put("b", []byte("bb")); err != nil {
		t.Fatal(err)
	}
	m.Restore(snap)
	if got, _ := m.Get("a"); string(got) != "aaaa" {
		t.Fatalf("Restore: a = %q", got)
	}
	if _, err := m.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatal("Restore kept post-snapshot entry")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestHeldBytesSurviveMutation pins the other half of the copy-free
// contract: Get results and open streams may share the stored value, so
// no store may edit a value in place. A slice from Get, or a stream from
// Open, taken before an overwriting Put, a Delete or a Tamper keeps the
// bytes it was given.
func TestHeldBytesSurviveMutation(t *testing.T) {
	mutations := map[string]func(s Store) error{
		"put":    func(s Store) error { return s.Put("k", []byte("overwritten")) },
		"delete": func(s Store) error { return s.Delete("k") },
		"tamper": func(s Store) error { return s.(*Mem).Tamper("k") },
	}
	for name, s := range openBoth(t) {
		for mut, apply := range mutations {
			if _, isMem := s.(*Mem); mut == "tamper" && !isMem {
				continue // only Mem plays the cache adversary
			}
			t.Run(name+"/"+mut, func(t *testing.T) {
				if err := s.Put("k", []byte("original")); err != nil {
					t.Fatal(err)
				}
				held, err := s.Get("k")
				if err != nil {
					t.Fatal(err)
				}
				stream, _, err := s.(Streamer).Open("k")
				if err != nil {
					t.Fatal(err)
				}
				defer stream.Close()
				if err := apply(s); err != nil {
					t.Fatal(err)
				}
				if string(held) != "original" {
					t.Fatalf("Get result after %s = %q", mut, held)
				}
				if got, err := io.ReadAll(stream); err != nil || string(got) != "original" {
					t.Fatalf("stream after %s read %q, %v", mut, got, err)
				}
			})
		}
	}
}

// TestPinnedKeysSurviveBudget: pinned prefixes are exempt from LRU
// eviction and from the oversized-blob drop — the journal an edge
// replica persists beside its package cache must survive arbitrary
// package churn.
func TestPinnedKeysSurviveBudget(t *testing.T) {
	fsStore, err := OpenFS(t.TempDir(), FSOptions{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemBudget(100)
	for name, s := range map[string]Store{"mem": mem, "fs": fsStore} {
		t.Run(name, func(t *testing.T) {
			s.(Pinner).Pin("meta/")
			if err := s.Put("meta/index", make([]byte, 30)); err != nil {
				t.Fatal(err)
			}
			// Churn far past the budget: the pinned journal is the
			// coldest entry but must survive every sweep.
			for i := 0; i < 20; i++ {
				if err := s.Put(fmt.Sprintf("pkg/%d", i), make([]byte, 25)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Get("meta/index"); err != nil {
				t.Fatalf("pinned journal evicted: %v", err)
			}
			// Oversized pinned blob is still stored.
			if err := s.Put("meta/index", make([]byte, 150)); err != nil {
				t.Fatal(err)
			}
			if raw, err := s.Get("meta/index"); err != nil || len(raw) != 150 {
				t.Fatalf("oversized pinned journal dropped: %d bytes, %v", len(raw), err)
			}
		})
	}
}
