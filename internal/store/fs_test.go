package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"tsr/internal/durable"
	"tsr/internal/durable/durabletest"
)

// TestFSPutCrash walks a power loss over every operation of a Put, one
// that overwrites a key and one that adds it, with and without Fsync,
// with the unsynced names lost and kept. After a reopen, Get returns
// the old value or the new one. With Fsync it returns the new one if
// the Put returned nil. Without Fsync it may also miss, but it never
// returns other bytes.
func TestFSPutCrash(t *testing.T) {
	newValue := []byte("new-value, longer than the old one")
	// run returns the number of operations the shim saw, even when a
	// check fails, so the walk is sized by the first call.
	run := func(t *testing.T, fsync bool, old []byte, crashAt int, keepNames bool) (ops int) {
		dir := t.TempDir()
		s, err := OpenFS(dir, FSOptions{Fsync: fsync})
		if err != nil {
			t.Fatal(err)
		}
		if old != nil {
			if err := s.Put("k", old); err != nil {
				t.Fatal(err)
			}
		}
		shim, err := durabletest.New(dir, crashAt)
		if err != nil {
			t.Fatal(err)
		}
		s.fsys = shim
		if !fsync {
			s.fsys = durable.NoSync(shim)
		}
		putErr := s.Put("k", newValue)
		if putErr != nil && !errors.Is(putErr, durabletest.ErrCrashed) {
			t.Fatal(putErr)
		}
		ops = shim.Ops()
		if err := shim.Rewind(keepNames); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenFS(dir, FSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.Get("k")
		switch {
		case err == nil && bytes.Equal(got, newValue):
		case err == nil && old != nil && bytes.Equal(got, old):
			if fsync && putErr == nil {
				t.Error("Put returned nil, but after the crash Get returns the old value")
			}
		case errors.Is(err, ErrNotFound):
			if fsync && (putErr == nil || old != nil) {
				t.Errorf("after the crash Get misses (Put returned %v, old value %q)", putErr, old)
			}
		default:
			t.Errorf("after the crash Get = %q, %v", got, err)
		}
		return ops
	}
	for _, fsync := range []bool{true, false} {
		for _, old := range [][]byte{nil, []byte("old-value")} {
			n := run(t, fsync, old, 0, false)
			for k := 0; k <= n; k++ {
				for _, keepNames := range []bool{false, true} {
					name := fmt.Sprintf("fsync=%v/overwrite=%v/op%d/keepNames=%v", fsync, old != nil, k, keepNames)
					t.Run(name, func(t *testing.T) { run(t, fsync, old, k, keepNames) })
				}
			}
		}
	}
}

// TestFSDeleteCrash walks a power loss over every operation of a
// Delete, with and without Fsync, with the unsynced names lost and
// kept. The remove is one of those operations, so a crash can land on
// it. After a reopen, Get returns the old value or misses. With Fsync
// it misses if the Delete returned nil.
func TestFSDeleteCrash(t *testing.T) {
	old := []byte("old-value")
	run := func(t *testing.T, fsync bool, crashAt int, keepNames bool) (ops int) {
		dir := t.TempDir()
		s, err := OpenFS(dir, FSOptions{Fsync: fsync})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("k", old); err != nil {
			t.Fatal(err)
		}
		shim, err := durabletest.New(dir, crashAt)
		if err != nil {
			t.Fatal(err)
		}
		s.fsys = shim
		if !fsync {
			s.fsys = durable.NoSync(shim)
		}
		delErr := s.Delete("k")
		if delErr != nil && !errors.Is(delErr, durabletest.ErrCrashed) {
			t.Fatal(delErr)
		}
		ops = shim.Ops()
		if err := shim.Rewind(keepNames); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenFS(dir, FSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.Get("k")
		switch {
		case errors.Is(err, ErrNotFound):
		case err == nil && bytes.Equal(got, old):
			if fsync && delErr == nil {
				t.Error("Delete returned nil, but after the crash Get returns the old value")
			}
		default:
			t.Errorf("after the crash Get = %q, %v", got, err)
		}
		return ops
	}
	for _, fsync := range []bool{true, false} {
		n := run(t, fsync, 0, false)
		if n == 0 {
			t.Fatalf("fsync=%v: the shim saw no operation of the Delete", fsync)
		}
		for k := 0; k <= n; k++ {
			for _, keepNames := range []bool{false, true} {
				name := fmt.Sprintf("fsync=%v/op%d/keepNames=%v", fsync, k, keepNames)
				t.Run(name, func(t *testing.T) { run(t, fsync, k, keepNames) })
			}
		}
	}
}

// syncRecorder is a durable.FS that records the directories it syncs.
type syncRecorder struct {
	durable.FS
	dirs []string
}

func (r *syncRecorder) SyncDir(dir string) error {
	r.dirs = append(r.dirs, dir)
	return r.FS.SyncDir(dir)
}

// TestOpenFSSyncsNewDirs: with Fsync, OpenFS syncs the parent of the
// data dir, of each missing parent it creates and of objects/, so those
// names survive a power loss with the entries later renamed under them.
// Reopening syncs the data dir's and objects/' parents again: a process
// that crashed after making them may not have synced them.
func TestOpenFSSyncsNewDirs(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "host", "data")
	for _, want := range [][]string{
		{root, filepath.Dir(dir), dir},
		{filepath.Dir(dir), dir},
	} {
		rec := &syncRecorder{FS: durable.OS}
		if _, err := openFS(dir, 0, rec); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rec.dirs, want) {
			t.Errorf("OpenFS synced %q, want %q", rec.dirs, want)
		}
	}
}

// TestFSPutSyncsNewFanout: with Fsync, the first Put into a fan-out
// directory syncs the parents of both directories it creates, so their
// names survive a power loss with the entry's; a second Put into the
// same fan-out syncs only the entry's own directory.
func TestFSPutSyncsNewFanout(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, FSOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := &syncRecorder{FS: s.fsys}
	s.fsys = rec
	fanout := filepath.Dir(s.pathFor("k"))
	other := "k"
	for i := 0; filepath.Dir(s.pathFor(other)) != fanout || other == "k"; i++ {
		other = fmt.Sprintf("k%d", i)
	}
	objects := filepath.Join(dir, fsObjectDir)
	for _, tc := range []struct {
		key  string
		want []string
	}{
		{"k", []string{objects, filepath.Dir(fanout), fanout}},
		{other, []string{fanout}},
	} {
		rec.dirs = nil
		if err := s.Put(tc.key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rec.dirs, tc.want) {
			t.Errorf("Put(%q) synced %q, want %q", tc.key, rec.dirs, tc.want)
		}
	}
}

// hostileFrames are entry files whose header lengths lie about the
// file, each 30 bytes long. Summed in 64 bits, header, key and payload
// lengths come to 30 in both, so a length check that adds them passes.
var hostileFrames = []struct {
	name string
	raw  []byte
}{
	{"length sum wraps", hostileFrame(20, math.MaxUint64-9)},
	{"key longer than the file", hostileFrame(math.MaxUint32, math.MaxUint64-math.MaxUint32+11)},
}

func hostileFrame(keyLen uint32, dataLen uint64) []byte {
	raw := make([]byte, 30)
	copy(raw, fsMagic)
	binary.BigEndian.PutUint32(raw[4:8], keyLen)
	binary.BigEndian.PutUint64(raw[8:16], dataLen)
	return raw
}

// TestFSHostileFrameIsAMiss: an entry file whose lengths lie is a miss
// at Get, at Open and at the boot scrub, and none of them panics or
// allocates by the lying length.
func TestFSHostileFrameIsAMiss(t *testing.T) {
	for _, row := range hostileFrames {
		for _, reader := range []string{"Get", "Open", "scrub"} {
			t.Run(row.name+"/"+reader, func(t *testing.T) {
				dir := t.TempDir()
				s, err := OpenFS(dir, FSOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Put("k", []byte("honest")); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(s.pathFor("k"), row.raw, 0o644); err != nil {
					t.Fatal(err)
				}
				switch reader {
				case "Get":
					_, err = s.Get("k")
				case "Open":
					_, _, err = s.Open("k")
				case "scrub":
					if s, err = OpenFS(dir, FSOptions{}); err != nil {
						t.Fatal(err)
					}
					if kept, dropped := s.ScrubReport(); kept != 0 || dropped != 1 {
						t.Fatalf("scrub kept %d and dropped %d, want 0 and 1", kept, dropped)
					}
					_, err = s.Get("k")
				}
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s of a hostile frame: err = %v, want ErrNotFound", reader, err)
				}
				if _, err := s.Stat("k"); !errors.Is(err, ErrNotFound) {
					t.Fatalf("the hostile entry is still indexed after %s", reader)
				}
			})
		}
	}
}

// FuzzDecodeFrame: neither frame reader panics or allocates more than
// the input's size, the two agree on every frame decodeFrame accepts,
// and every such frame re-encodes byte for byte.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frame("pkg@1", []byte("payload")))
	f.Add(frame("", nil))
	for _, row := range hostileFrames {
		f.Add(row.raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		key, data, err := decodeFrame(raw)
		headKey, dataLen, headErr := readFrameHead(bytes.NewReader(raw), int64(len(raw)))
		runtime.ReadMemStats(&after)
		// TotalAlloc counts the whole process, the fuzzing engine's
		// goroutines too, hence the slack; a length the frame lies
		// about would allocate far past it.
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(len(raw))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), n)
		}
		if err != nil {
			return
		}
		if headErr != nil || !bytes.Equal(headKey, key) || dataLen != int64(len(data)) {
			t.Fatalf("readFrameHead = %q, %d, %v; decodeFrame accepted key %q with %d payload bytes",
				headKey, dataLen, headErr, key, len(data))
		}
		if enc := append(frameHeader(string(key), data), data...); !bytes.Equal(enc, raw) {
			t.Fatalf("accepted frame re-encodes differently:\n%x\n%x", raw, enc)
		}
	})
}
