package vfs

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteReadFile(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/etc/passwd", []byte("root:x:0:0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "root:x:0:0\n" {
		t.Fatalf("content = %q", got)
	}
	info, err := fs.Stat("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != 0o644 || info.Type != Regular || info.Size != 11 {
		t.Fatalf("info = %+v", info)
	}
	// Parent directories are created implicitly.
	if info, err := fs.Stat("/etc"); err != nil || info.Type != Dir {
		t.Fatalf("parent dir: %+v, %v", info, err)
	}
}

func TestReadFileErrors(t *testing.T) {
	fs := New()
	if _, err := fs.ReadFile("/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing file: err = %v", err)
	}
	if err := fs.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("read dir: err = %v", err)
	}
	if _, err := fs.ReadFile("relative/path"); !errors.Is(err, ErrBadPath) {
		t.Errorf("relative path: err = %v", err)
	}
	if _, err := fs.ReadFile(""); !errors.Is(err, ErrBadPath) {
		t.Errorf("empty path: err = %v", err)
	}
}

func TestWriteFileOverDirFails(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d", []byte("x"), 0o644); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.WriteFile("/", []byte("x"), 0o644); !errors.Is(err, ErrIsDir) {
		t.Fatalf("write root: err = %v", err)
	}
}

func TestWriteFilePreservesXattrs(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetXattr("/f", "security.ima", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("v2"), 0o600); err != nil {
		t.Fatal(err)
	}
	v, err := fs.GetXattr("/f", "security.ima")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("xattr = %v", v)
	}
}

func TestAppendFile(t *testing.T) {
	fs := New()
	if err := fs.AppendFile("/log", []byte("a"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("/log", []byte("b"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/log")
	if string(got) != "ab" {
		t.Fatalf("content = %q", got)
	}
	if err := fs.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("/d", []byte("x"), 0o644); err == nil {
		t.Fatal("append to dir: want error")
	}
}

func TestMkdirAll(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/a/b/c", 0o700); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/a/b", "/a/b/c"} {
		info, err := fs.Stat(p)
		if err != nil || info.Type != Dir {
			t.Fatalf("%s: %+v, %v", p, info, err)
		}
	}
	// Idempotent.
	if err := fs.MkdirAll("/a/b/c", 0o700); err != nil {
		t.Fatal(err)
	}
	// Over a file: error.
	if err := fs.WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/f/sub", 0o755); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestSymlink(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/bin/ash", []byte("#!"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/bin/ash", "/bin/sh"); err != nil {
		t.Fatal(err)
	}
	target, err := fs.Readlink("/bin/sh")
	if err != nil {
		t.Fatal(err)
	}
	if target != "/bin/ash" {
		t.Fatalf("target = %q", target)
	}
	if err := fs.Symlink("/x", "/bin/sh"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate symlink: err = %v", err)
	}
	if _, err := fs.Readlink("/bin/ash"); err == nil {
		t.Fatal("readlink on regular file: want error")
	}
	if err := fs.Symlink("/x", "/nodir/link"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("symlink without parent: err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/a"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("remove non-empty dir: err = %v", err)
	}
	if err := fs.Remove("/a/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") {
		t.Fatal("dir still exists")
	}
	if err := fs.Remove("/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.Remove("/"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("remove root: err = %v", err)
	}
}

func TestRemoveAll(t *testing.T) {
	fs := New()
	for _, p := range []string{"/a/b/c", "/a/b/d", "/a/e", "/ab"} {
		if err := fs.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") || fs.Exists("/a/b/c") {
		t.Fatal("subtree survived RemoveAll")
	}
	// Prefix must not over-match: /ab stays.
	if !fs.Exists("/ab") {
		t.Fatal("/ab was wrongly removed")
	}
	// Idempotent on missing path.
	if err := fs.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
}

func TestRename(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/old", []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/old") {
		t.Fatal("/old still exists")
	}
	got, err := fs.ReadFile("/new")
	if err != nil || string(got) != "data" {
		t.Fatalf("content = %q, %v", got, err)
	}
}

func TestRenameDirectorySubtree(t *testing.T) {
	fs := New()
	for _, p := range []string{"/src/a", "/src/sub/b"} {
		if err := fs.WriteFile(p, []byte(p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Rename("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/dst/a", "/dst/sub/b"} {
		if !fs.Exists(p) {
			t.Fatalf("%s missing after rename", p)
		}
	}
	if fs.Exists("/src/a") {
		t.Fatal("source survived rename")
	}
}

func TestRenameErrors(t *testing.T) {
	fs := New()
	if err := fs.Rename("/missing", "/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/f", "/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("rename onto dir: err = %v", err)
	}
	if err := fs.Rename("/f", "/nodir/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rename into missing dir: err = %v", err)
	}
}

func TestChmodChown(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod("/f", 0o4755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown("/f", "ntp"); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/f")
	if info.Mode != 0o4755 || info.Owner != "ntp" {
		t.Fatalf("info = %+v", info)
	}
	if err := fs.Chmod("/missing", 0o644); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.Chown("/missing", "x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestXattrs(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sig := []byte{0xde, 0xad}
	if err := fs.SetXattr("/f", "security.ima", sig); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetXattr("/f", "user.note", []byte("n")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.GetXattr("/f", "security.ima")
	if err != nil || !bytes.Equal(got, sig) {
		t.Fatalf("xattr = %v, %v", got, err)
	}
	names, err := fs.ListXattrs("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "security.ima" || names[1] != "user.note" {
		t.Fatalf("names = %v", names)
	}
	if _, err := fs.GetXattr("/f", "missing"); !errors.Is(err, ErrNoXattr) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.SetXattr("/missing", "a", nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestXattrValueIsolated(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	v := []byte{1}
	if err := fs.SetXattr("/f", "a", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 99 // mutating caller's slice must not affect stored value
	got, _ := fs.GetXattr("/f", "a")
	if got[0] != 1 {
		t.Fatal("stored xattr aliased caller slice")
	}
	got[0] = 77 // mutating returned slice must not affect stored value
	got2, _ := fs.GetXattr("/f", "a")
	if got2[0] != 1 {
		t.Fatal("returned xattr aliased stored value")
	}
}

func TestWalkOrderAndScope(t *testing.T) {
	fs := New()
	for _, p := range []string{"/b", "/a/x", "/a/y", "/c/z"} {
		if err := fs.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var paths []string
	err := fs.Walk("/a", func(info FileInfo) error {
		paths = append(paths, info.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a", "/a/x", "/a/y"}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("paths = %v, want %v", paths, want)
		}
	}
}

func TestWalkStopsOnError(t *testing.T) {
	fs := New()
	for _, p := range []string{"/a", "/b", "/c"} {
		if err := fs.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	sentinel := errors.New("stop")
	err := fs.Walk("/", func(info FileInfo) error {
		count++
		if count == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || count != 2 {
		t.Fatalf("err = %v, count = %d", err, count)
	}
}

func TestReadDir(t *testing.T) {
	fs := New()
	for _, p := range []string{"/d/a", "/d/b", "/d/sub/deep"} {
		if err := fs.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := fs.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 { // a, b, sub — not sub/deep
		t.Fatalf("got %d entries: %+v", len(infos), infos)
	}
	if infos[0].Path != "/d/a" || infos[2].Path != "/d/sub" {
		t.Fatalf("infos = %+v", infos)
	}
	if _, err := fs.ReadDir("/d/a"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.ReadDir("/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadDirRoot(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Path != "/f" {
		t.Fatalf("infos = %+v", infos)
	}
}

func TestContentIsolation(t *testing.T) {
	fs := New()
	data := []byte("abc")
	if err := fs.WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, _ := fs.ReadFile("/f")
	if string(got) != "abc" {
		t.Fatal("stored content aliased caller slice")
	}
	got[0] = 'Y'
	got2, _ := fs.ReadFile("/f")
	if string(got2) != "abc" {
		t.Fatal("returned content aliased stored value")
	}
}

// TestWriteFileKeepsNoCallerSlice: the stored file never aliases the
// caller's slice, whether WriteFile copies changed content or keeps the
// stored bytes because the content is equal.
func TestWriteFileKeepsNoCallerSlice(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, content := range []string{"abc", "abd"} {
		data := []byte(content)
		if err := fs.WriteFile("/f", data, 0o644); err != nil {
			t.Fatal(err)
		}
		data[0] = 'X'
		if got, _ := fs.ReadFile("/f"); string(got) != content {
			t.Fatalf("after writing %q then changing the caller's slice, file = %q", content, got)
		}
	}
}

// TestEqualViewOutlivesTheFile: Equal hands out the stored bytes of a
// file that holds the content, capped at their length, and nothing for
// one that does not; whatever later happens to the file, the view's
// bytes stay those it was taken with, and an append to it cannot reach
// the file's.
func TestEqualViewOutlivesTheFile(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.Equal("/f", []byte("abd")); ok {
		t.Fatal("Equal matched different content")
	}
	if _, ok := fs.Equal("/missing", nil); ok {
		t.Fatal("Equal matched a missing file")
	}
	view, ok := fs.Equal("/f", []byte("abc"))
	if !ok || string(view) != "abc" || cap(view) != len(view) {
		t.Fatalf("Equal = %q (cap %d), %v", view, cap(view), ok)
	}
	_ = append(view, 'X')
	if err := fs.AppendFile("/f", []byte("de"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("xyz"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if string(view) != "abc" {
		t.Fatalf("the view changed to %q", view)
	}
}

// TestEqualViewUnderConcurrentWrites: views are read outside the lock
// while other goroutines append to, rewrite and adopt into the file; the
// filesystem never writes stored bytes in place, so under -race no read
// of a view races a write, and a view never changes.
func TestEqualViewUnderConcurrentWrites(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("seed"), 0o644); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = fs.AppendFile("/f", []byte("+"), 0o644)
			if i%50 == 0 {
				_ = fs.WriteFile("/f", []byte("seed"), 0o644)
				_ = fs.Adopt("/f", []byte("seed"), 0o644)
			}
		}
	}()
	go func() {
		defer wg.Done()
		var kept []byte
		var want string
		for i := 0; i < 500; i++ {
			content, err := fs.ReadFile("/f")
			if err != nil {
				t.Error(err)
				return
			}
			if view, ok := fs.Equal("/f", content); ok {
				kept, want = view, string(content)
			}
			if string(kept) != want {
				t.Errorf("a view of %q changed to %q", want, kept)
				return
			}
		}
	}()
	wg.Wait()
}

// TestAdoptKeepsTheSlice: Adopt stores changed content without a copy,
// capped so that appending to the file cannot write into spare capacity
// the caller's slice shares, and leaves a file that holds equal content
// as it is.
func TestAdoptKeepsTheSlice(t *testing.T) {
	fs := New()
	content := append(make([]byte, 0, 16), "abc"...)
	if err := fs.Adopt("/f", content, 0o600); err != nil {
		t.Fatal(err)
	}
	view, _ := fs.Equal("/f", content)
	if &view[0] != &content[0] {
		t.Fatal("Adopt copied the content")
	}
	if err := fs.AppendFile("/f", []byte("de"), 0o600); err != nil {
		t.Fatal(err)
	}
	if got := content[:5]; string(got) != "abc\x00\x00" {
		t.Fatalf("appending to the file wrote into the adopted slice's spare capacity: %q", got)
	}
	kept, _ := fs.Equal("/f", []byte("abcde"))
	if err := fs.Adopt("/f", []byte("abcde"), 0o644); err != nil {
		t.Fatal(err)
	}
	again, _ := fs.Equal("/f", []byte("abcde"))
	if &again[0] != &kept[0] {
		t.Fatal("Adopt of equal content replaced the stored bytes")
	}
	if info, _ := fs.Stat("/f"); info.Mode != 0o644 {
		t.Fatalf("mode = %o, want the adopted 644", info.Mode)
	}
	if err := fs.Adopt("/", nil, 0o644); !errors.Is(err, ErrIsDir) {
		t.Fatalf("Adopt over the root: err = %v", err)
	}
}

// TestWriteFileEqualContentUpdatesMode: a WriteFile that keeps the
// stored bytes still applies the new mode and keeps the xattrs.
func TestWriteFileEqualContentUpdatesMode(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/bin/x", []byte("same"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetXattr("/bin/x", "security.ima", []byte("sig")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/bin/x", []byte("same"), 0o755); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/bin/x")
	if err != nil || info.Mode != 0o755 || info.Size != 4 {
		t.Fatalf("info = %+v, %v; want mode 0755, size 4", info, err)
	}
	if v, err := fs.GetXattr("/bin/x", "security.ima"); err != nil || string(v) != "sig" {
		t.Fatalf("xattr = %q, %v", v, err)
	}
}

// TestDigest: Digest is the SHA-256 of what ReadFile returns, and fails
// where ReadFile fails.
func TestDigest(t *testing.T) {
	fs := New()
	for _, content := range [][]byte{nil, []byte("abc"), bytes.Repeat([]byte{7}, 1<<16)} {
		if err := fs.WriteFile("/d/f", content, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := fs.Digest("/d/f")
		if err != nil {
			t.Fatal(err)
		}
		read, err := fs.ReadFile("/d/f")
		if err != nil {
			t.Fatal(err)
		}
		if got != sha256.Sum256(read) {
			t.Fatalf("Digest of %d bytes = %x, want %x", len(content), got, sha256.Sum256(read))
		}
	}
	if _, err := fs.Digest("/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("directory: err = %v, want ErrIsDir", err)
	}
	if _, err := fs.Digest("/d/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing file: err = %v, want ErrNotExist", err)
	}
	if _, err := fs.Digest("relative"); !errors.Is(err, ErrBadPath) {
		t.Errorf("relative path: err = %v, want ErrBadPath", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p := fmt.Sprintf("/dir%d/file%d", i, j)
				if err := fs.WriteFile(p, []byte("x"), 0o644); err != nil {
					t.Error(err)
					return
				}
				if _, err := fs.ReadFile(p); err != nil {
					t.Error(err)
					return
				}
				fs.Walk("/", func(FileInfo) error { return nil })
			}
		}(i)
	}
	wg.Wait()
	// 8 dirs * 50 files + 8 dirs + root
	if got := fs.Count(); got != 8*50+8+1 {
		t.Fatalf("Count = %d", got)
	}
}

func TestWriteReadRoundtripProperty(t *testing.T) {
	fs := New()
	f := func(name string, content []byte) bool {
		if name == "" {
			return true
		}
		// Build a safe path component.
		p := "/prop/" + fmt.Sprintf("%x", name)
		if err := fs.WriteFile(p, content, 0o644); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		return err == nil && bytes.Equal(got, content)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathNormalization(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/etc//passwd", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/etc/./passwd"); err != nil {
		t.Fatalf("normalized read failed: %v", err)
	}
	if _, err := fs.ReadFile("/etc/../etc/passwd"); err != nil {
		t.Fatalf("dotdot read failed: %v", err)
	}
}

func TestFileTypeString(t *testing.T) {
	if Regular.String() != "regular" || Dir.String() != "dir" || Symlink.String() != "symlink" {
		t.Fatal("FileType strings wrong")
	}
	if FileType(9).String() != "FileType(9)" {
		t.Fatal("unknown FileType string wrong")
	}
}

func TestSymlinkThenRemove(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/bin/ash", []byte("#!"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/bin/ash", "/bin/sh"); err != nil {
		t.Fatal(err)
	}
	// Removing the symlink leaves the target intact.
	if err := fs.Remove("/bin/sh"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/bin/ash") {
		t.Fatal("target removed with symlink")
	}
}

func TestStatSymlinkType(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/usr/bin", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("/target", "/usr/bin/link"); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat("/usr/bin/link")
	if err != nil {
		t.Fatal(err)
	}
	if info.Type != Symlink {
		t.Fatalf("type = %v", info.Type)
	}
	// Symlink content (the target) is readable via ReadFile in this
	// model, but Walk reports it as a Symlink node.
	var sawLink bool
	fs.Walk("/usr/bin", func(fi FileInfo) error {
		if fi.Path == "/usr/bin/link" && fi.Type == Symlink {
			sawLink = true
		}
		return nil
	})
	if !sawLink {
		t.Fatal("walk did not report symlink")
	}
}

func TestRenameOverwritesFile(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/a", []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/b", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/b")
	if string(got) != "new" {
		t.Fatalf("content = %q", got)
	}
}
