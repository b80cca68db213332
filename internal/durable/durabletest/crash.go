// Package durabletest provides the crash shim the durability tests of
// tpm, store and tsrd share: a durable.FS over a real directory that
// fails at a chosen operation and then rewinds the directory to what
// had been made durable, as a power loss would.
package durabletest

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"tsr/internal/durable"
)

// ErrCrashed is what every operation returns from the crash on.
//
//lint:allow deadexport the crash tables of tpm, store and cmd/tsrd match it
var ErrCrashed = errors.New("durabletest: crashed")

// FS is a durable.FS over a real directory that counts its operations
// (create, write, file sync, close, rename, remove, directory sync)
// and fails the crashAt-th one and every one after it. It keeps two
// views of each file it knows: the live one, which the real directory
// holds, and the durable one, which a power loss leaves. A file's
// bytes become durable when the file is synced; a name that a create,
// rename or remove changed becomes durable when its directory is
// synced. Rewind then puts the durable view on disk. Directories are
// outside the model: the shim makes and removes none, and a Rewind
// leaves them as they are.
//
//lint:allow deadexport the crash tables of tpm, store and cmd/tsrd run writers on it
type FS struct {
	mu      sync.Mutex
	crashAt int // 0: never
	ops     int
	live    map[string]*inode // by cleaned path
	durable map[string]*inode
}

// inode is one file's bytes: written so far, and as of its last sync.
type inode struct {
	data, synced []byte
}

// New returns a shim over the directory tree at root that fails its
// crashAt-th operation (never when crashAt is 0). Every regular file
// already under root counts as durable.
//
//lint:allow deadexport the crash tables of tpm, store and cmd/tsrd build it
func New(root string, crashAt int) (*FS, error) {
	c := &FS{crashAt: crashAt, live: map[string]*inode{}, durable: map[string]*inode{}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ino := &inode{data: data, synced: data}
		c.live[filepath.Clean(path)], c.durable[filepath.Clean(path)] = ino, ino
		return nil
	})
	return c, err
}

// Ops returns how many operations the shim has been asked for.
//
//lint:allow deadexport the crash tables size their walks with it
func (c *FS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// do counts one operation and, unless the shim has crashed by then,
// runs it under the lock.
func (c *FS) do(op func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if c.crashAt > 0 && c.ops >= c.crashAt {
		return ErrCrashed
	}
	return op()
}

// Rewind is the power loss: it makes the directory hold what had been
// made durable, and nothing else of what the shim saw. With keepNames,
// every name change survives even without a directory sync, as on a
// file system that journals names but not data; file bytes still
// survive only if synced, so a file renamed unsynced comes back empty.
// Use the directory through the ordinary file system afterwards.
//
//lint:allow deadexport the crash tables of tpm, store and cmd/tsrd call it
func (c *FS) Rewind(keepNames bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashAt, c.ops = 1, 1 // dead from here on
	view := c.durable
	if keepNames {
		view = c.live
	}
	for _, m := range []map[string]*inode{c.live, c.durable} {
		for path := range m {
			ino, ok := view[path]
			if !ok {
				if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
					return err
				}
				continue
			}
			if err := os.WriteFile(path, ino.synced, 0o600); err != nil {
				return err
			}
		}
	}
	return nil
}

// CreateTemp implements durable.FS.
func (c *FS) CreateTemp(dir, pattern string) (durable.File, error) {
	var f *file
	err := c.do(func() error {
		tmp, err := durable.OS.CreateTemp(dir, pattern)
		if err == nil {
			f = &file{f: tmp, ino: &inode{}, c: c}
			c.live[filepath.Clean(tmp.Name())] = f.ino
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements durable.FS.
func (c *FS) Rename(oldpath, newpath string) error {
	return c.do(func() error {
		if err := durable.OS.Rename(oldpath, newpath); err != nil {
			return err
		}
		oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
		c.live[newpath] = c.live[oldpath]
		delete(c.live, oldpath)
		return nil
	})
}

// Remove implements durable.FS.
func (c *FS) Remove(name string) error {
	return c.do(func() error {
		if err := durable.OS.Remove(name); err != nil {
			return err
		}
		delete(c.live, filepath.Clean(name))
		return nil
	})
}

// SyncDir implements durable.FS: the live names in dir become the
// durable ones.
func (c *FS) SyncDir(dir string) error {
	return c.do(func() error {
		dir = filepath.Clean(dir)
		for _, m := range []map[string]*inode{c.live, c.durable} {
			for path := range m {
				if filepath.Dir(path) != dir {
					continue
				}
				if ino, ok := c.live[path]; ok {
					c.durable[path] = ino
				} else {
					delete(c.durable, path)
				}
			}
		}
		return nil
	})
}

// file is a temporary file the shim created.
type file struct {
	f   durable.File
	ino *inode
	c   *FS
}

func (f *file) Name() string { return f.f.Name() }

func (f *file) Write(p []byte) (n int, err error) {
	err = f.c.do(func() error {
		n, err = f.f.Write(p)
		f.ino.data = append(f.ino.data, p[:n]...)
		return err
	})
	return n, err
}

// Sync makes the bytes written so far durable. It does not sync the
// real file: the shim's durable view, not the disk, is what a Rewind
// restores.
func (f *file) Sync() error {
	return f.c.do(func() error {
		f.ino.synced = append([]byte(nil), f.ino.data...)
		return nil
	})
}

// Close fails like any other operation once the shim has crashed, and
// always releases the real file.
func (f *file) Close() error {
	err := f.c.do(func() error { return nil })
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}
