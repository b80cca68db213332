// Package durable is the one way this module replaces a file so that
// a crash at any instant leaves either the old bytes or the new ones:
// the TPM's NV counter bank, tsrd's host-state file and every
// store.FS entry are written through WriteFile. The paper's rollback
// defence (§5.5) rests on those files reaching disk whole and in
// order, so the rule lives here once rather than in each writer.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// File is the temporary file WriteFile fills: the subset of *os.File
// it calls.
type File interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// FS is the file-system operations WriteFile needs. OS is the real
// one; the interface exists so that a test can put a file system that
// crashes, and forgets what was not made durable, under a writer.
type FS interface {
	// CreateTemp creates a new file in dir whose name is pattern with
	// its last "*" replaced by a string unique to the call.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes the entries of directory dir, the names that
	// renames and removes in it changed, durable.
	SyncDir(dir string) error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err // not a File holding a nil *os.File
	}
	return f, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// NoSync returns fsys with every file and directory sync turned into
// a no-op. WriteFile over it still replaces the file atomically, so a
// crash never leaves a half-written file under path, but it may leave
// the old file, the new one, or an empty one.
func NoSync(fsys FS) FS { return noSyncFS{fsys} }

type noSyncFS struct{ FS }

func (n noSyncFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := n.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

// WriteFile replaces the file at path with the concatenation of parts.
// It creates a temporary file in path's directory (".<base>.<n>.tmp",
// base being path's last element and n unique to the call), writes
// parts to it in order, syncs and closes it, renames it over path and
// syncs the directory, so the new bytes are on disk, whole, when it
// returns nil.
// It returns every error, and on an error it removes the temporary
// file; path then holds the old bytes or the new ones.
func WriteFile(fsys FS, path string, parts ...[]byte) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // the error that matters is err
		return err
	}
	return fsys.SyncDir(dir)
}

// RemoveTemps removes the temporary files of WriteFile(fsys, path)
// that a crash left beside path. They never held bytes path needs, so
// one it cannot find or remove is left as litter, not an error.
func RemoveTemps(fsys FS, path string) {
	tmps, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".[0-9]*.tmp"))
	for _, tmp := range tmps {
		_ = fsys.Remove(tmp)
	}
}
