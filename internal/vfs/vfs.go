// Package vfs implements an in-memory filesystem with POSIX-style modes
// and extended attributes. It is the substrate under the simulated
// integrity-enforced operating system: Linux IMA stores per-file digital
// signatures in the security.ima extended attribute, and the package
// manager extracts files (with xattrs carried in PAX headers) into this
// filesystem.
//
// Paths are slash-separated and absolute ("/etc/passwd"). All operations
// are safe for concurrent use.
package vfs

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
)

// Filesystem error sentinels, comparable with errors.Is.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	ErrNoXattr  = errors.New("vfs: extended attribute not set")
	ErrBadPath  = errors.New("vfs: invalid path")
)

// FileType distinguishes the node kinds the simulation needs.
type FileType int

const (
	// Regular is an ordinary file.
	Regular FileType = iota
	// Dir is a directory.
	Dir
	// Symlink is a symbolic link; its Content holds the target path.
	Symlink
)

// String implements fmt.Stringer.
func (t FileType) String() string {
	switch t {
	case Regular:
		return "regular"
	case Dir:
		return "dir"
	case Symlink:
		return "symlink"
	default:
		return fmt.Sprintf("FileType(%d)", int(t))
	}
}

// FileInfo describes a node, as returned by Stat.
type FileInfo struct {
	Path  string
	Type  FileType
	Mode  uint32
	Size  int64
	Owner string
}

// node is the internal representation of a file, directory, or symlink.
type node struct {
	typ     FileType
	mode    uint32
	owner   string
	content []byte
	xattrs  map[string][]byte
}

// FS is an in-memory filesystem. Use New to create one; the zero value is
// not usable.
type FS struct {
	mu    sync.RWMutex
	nodes map[string]*node // key: cleaned absolute path
}

// New returns an empty filesystem containing only the root directory.
func New() *FS {
	fs := &FS{nodes: make(map[string]*node)}
	fs.nodes["/"] = &node{typ: Dir, mode: 0o755, owner: "root"}
	return fs
}

// clean validates and normalizes p into a cleaned absolute path.
func clean(p string) (string, error) {
	if p == "" || !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("%w: %q (must be absolute)", ErrBadPath, p)
	}
	return path.Clean(p), nil
}

// ensureParent checks that the parent of p exists and is a directory.
// Caller must hold mu.
func (fs *FS) ensureParent(p string) error {
	parent := path.Dir(p)
	n, ok := fs.nodes[parent]
	if !ok {
		return fmt.Errorf("%w: parent %q", ErrNotExist, parent)
	}
	if n.typ != Dir {
		return fmt.Errorf("%w: parent %q", ErrNotDir, parent)
	}
	return nil
}

// MkdirAll creates directory p and any missing parents with the given
// mode. It succeeds if p already exists as a directory.
func (fs *FS) MkdirAll(p string, mode uint32) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mkdirAllLocked(p, mode)
}

func (fs *FS) mkdirAllLocked(p string, mode uint32) error {
	if n, ok := fs.nodes[p]; ok {
		if n.typ != Dir {
			return fmt.Errorf("%w: %q", ErrNotDir, p)
		}
		return nil
	}
	if p != "/" {
		if err := fs.mkdirAllLocked(path.Dir(p), mode); err != nil {
			return err
		}
	}
	fs.nodes[p] = &node{typ: Dir, mode: mode, owner: "root"}
	return nil
}

// WriteFile writes content to p, creating parents as needed and replacing
// any existing regular file. Writing over a directory is an error.
// Existing xattrs on the file are preserved (content update semantics).
// The file keeps its own copy of content, made only when the content
// differs from what the file already holds.
func (fs *FS) WriteFile(p string, content []byte, mode uint32) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("%w: %q", ErrIsDir, p)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mkdirAllLocked(path.Dir(p), 0o755); err != nil {
		return err
	}
	if n, ok := fs.nodes[p]; ok {
		if n.typ == Dir {
			return fmt.Errorf("%w: %q", ErrIsDir, p)
		}
		if !bytes.Equal(n.content, content) {
			n.content = append([]byte(nil), content...)
		}
		n.typ = Regular
		n.mode = mode
		return nil
	}
	fs.nodes[p] = &node{
		typ:     Regular,
		mode:    mode,
		owner:   "root",
		content: append([]byte(nil), content...),
	}
	return nil
}

// AppendFile appends content to the file at p, creating it if absent.
func (fs *FS) AppendFile(p string, content []byte, mode uint32) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n, ok := fs.nodes[p]; ok {
		if n.typ != Regular {
			return fmt.Errorf("%w: %q", ErrIsDir, p)
		}
		n.content = append(n.content, content...)
		return nil
	}
	if err := fs.mkdirAllLocked(path.Dir(p), 0o755); err != nil {
		return err
	}
	fs.nodes[p] = &node{
		typ:     Regular,
		mode:    mode,
		owner:   "root",
		content: append([]byte(nil), content...),
	}
	return nil
}

// ReadFile returns the content of the regular file at p.
func (fs *FS) ReadFile(p string) (out []byte, err error) {
	err = fs.withContent(p, func(content []byte) { out = append([]byte(nil), content...) })
	return out, err
}

// Digest returns the SHA-256 of the content of the regular file at p,
// hashed in place under the read lock: what sha256.Sum256 of ReadFile's
// result gives, without the copy.
func (fs *FS) Digest(p string) (sum [sha256.Size]byte, err error) {
	err = fs.withContent(p, func(content []byte) { sum = sha256.Sum256(content) })
	return sum, err
}

// withContent calls fn with the stored content of the file at p, under
// the read lock; fn must not keep or change it.
func (fs *FS) withContent(p string, fn func(content []byte)) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.nodes[p]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	if n.typ == Dir {
		return fmt.Errorf("%w: %q", ErrIsDir, p)
	}
	fn(n.content)
	return nil
}

// Stat returns metadata for the node at p.
func (fs *FS) Stat(p string) (FileInfo, error) {
	p, err := clean(p)
	if err != nil {
		return FileInfo{}, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.nodes[p]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	return FileInfo{
		Path:  p,
		Type:  n.typ,
		Mode:  n.mode,
		Size:  int64(len(n.content)),
		Owner: n.owner,
	}, nil
}

// Exists reports whether a node exists at p.
func (fs *FS) Exists(p string) bool {
	_, err := fs.Stat(p)
	return err == nil
}

// Symlink creates a symbolic link at linkPath pointing at target.
func (fs *FS) Symlink(target, linkPath string) error {
	linkPath, err := clean(linkPath)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.nodes[linkPath]; ok {
		return fmt.Errorf("%w: %q", ErrExist, linkPath)
	}
	if err := fs.ensureParent(linkPath); err != nil {
		return err
	}
	fs.nodes[linkPath] = &node{
		typ:     Symlink,
		mode:    0o777,
		owner:   "root",
		content: []byte(target),
	}
	return nil
}

// Readlink returns the target of the symlink at p.
func (fs *FS) Readlink(p string) (string, error) {
	p, err := clean(p)
	if err != nil {
		return "", err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.nodes[p]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	if n.typ != Symlink {
		return "", fmt.Errorf("vfs: %q is not a symlink", p)
	}
	return string(n.content), nil
}

// Remove deletes the node at p. Directories must be empty.
func (fs *FS) Remove(p string) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[p]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	if n.typ == Dir {
		prefix := p + "/"
		for q := range fs.nodes {
			if strings.HasPrefix(q, prefix) {
				return fmt.Errorf("%w: %q", ErrNotEmpty, p)
			}
		}
	}
	delete(fs.nodes, p)
	return nil
}

// RemoveAll deletes the node at p and, for directories, everything below
// it. Removing a non-existent path is not an error (like os.RemoveAll).
func (fs *FS) RemoveAll(p string) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	if p == "/" {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prefix := p + "/"
	for q := range fs.nodes {
		if q == p || strings.HasPrefix(q, prefix) {
			delete(fs.nodes, q)
		}
	}
	return nil
}

// Rename moves the node at oldp (and its subtree, for directories) to
// newp, overwriting any regular file at newp.
func (fs *FS) Rename(oldp, newp string) error {
	oldp, err := clean(oldp)
	if err != nil {
		return err
	}
	newp, err = clean(newp)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[oldp]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, oldp)
	}
	if err := fs.ensureParent(newp); err != nil {
		return err
	}
	if dst, ok := fs.nodes[newp]; ok && dst.typ == Dir {
		return fmt.Errorf("%w: %q", ErrIsDir, newp)
	}
	fs.nodes[newp] = n
	delete(fs.nodes, oldp)
	if n.typ == Dir {
		oldPrefix := oldp + "/"
		var moves [][2]string
		for q := range fs.nodes {
			if strings.HasPrefix(q, oldPrefix) {
				moves = append(moves, [2]string{q, newp + "/" + q[len(oldPrefix):]})
			}
		}
		for _, m := range moves {
			fs.nodes[m[1]] = fs.nodes[m[0]]
			delete(fs.nodes, m[0])
		}
	}
	return nil
}

// Chmod sets the permission bits of the node at p.
func (fs *FS) Chmod(p string, mode uint32) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[p]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	n.mode = mode
	return nil
}

// Chown sets the owner of the node at p.
func (fs *FS) Chown(p, owner string) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[p]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	n.owner = owner
	return nil
}

// SetXattr sets extended attribute name on the node at p. IMA signatures
// live under "security.ima".
func (fs *FS) SetXattr(p, name string, value []byte) error {
	p, err := clean(p)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[p]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	if n.xattrs == nil {
		n.xattrs = make(map[string][]byte)
	}
	n.xattrs[name] = append([]byte(nil), value...)
	return nil
}

// GetXattr returns extended attribute name of the node at p.
func (fs *FS) GetXattr(p, name string) ([]byte, error) {
	p, err := clean(p)
	if err != nil {
		return nil, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.nodes[p]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	v, ok := n.xattrs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q on %q", ErrNoXattr, name, p)
	}
	return append([]byte(nil), v...), nil
}

// ListXattrs returns the sorted extended attribute names of the node at p.
func (fs *FS) ListXattrs(p string) ([]string, error) {
	p, err := clean(p)
	if err != nil {
		return nil, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.nodes[p]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	names := make([]string, 0, len(n.xattrs))
	for name := range n.xattrs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Walk calls fn for every node under root (inclusive) in sorted path
// order. If fn returns an error the walk stops and returns it.
func (fs *FS) Walk(root string, fn func(info FileInfo) error) error {
	root, err := clean(root)
	if err != nil {
		return err
	}
	fs.mu.RLock()
	var infos []FileInfo
	prefix := root + "/"
	if root == "/" {
		prefix = "/"
	}
	for p, n := range fs.nodes {
		if p == root || strings.HasPrefix(p, prefix) {
			infos = append(infos, FileInfo{
				Path:  p,
				Type:  n.typ,
				Mode:  n.mode,
				Size:  int64(len(n.content)),
				Owner: n.owner,
			})
		}
	}
	fs.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Path < infos[j].Path })
	for _, info := range infos {
		if err := fn(info); err != nil {
			return err
		}
	}
	return nil
}

// ReadDir lists the immediate children of directory p in sorted order.
func (fs *FS) ReadDir(p string) ([]FileInfo, error) {
	p, err := clean(p)
	if err != nil {
		return nil, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.nodes[p]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, p)
	}
	if n.typ != Dir {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
	}
	prefix := p + "/"
	if p == "/" {
		prefix = "/"
	}
	var out []FileInfo
	for q, child := range fs.nodes {
		if q == p || !strings.HasPrefix(q, prefix) {
			continue
		}
		if strings.Contains(q[len(prefix):], "/") {
			continue // deeper than one level
		}
		out = append(out, FileInfo{
			Path:  q,
			Type:  child.typ,
			Mode:  child.mode,
			Size:  int64(len(child.content)),
			Owner: child.owner,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Count returns the number of nodes (including the root directory).
func (fs *FS) Count() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.nodes)
}

// Clone returns a deep copy of the filesystem, used to snapshot an OS
// image before an experiment trial and restore it afterwards.
func (fs *FS) Clone() *FS {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := &FS{nodes: make(map[string]*node, len(fs.nodes))}
	for p, n := range fs.nodes {
		cp := &node{
			typ:     n.typ,
			mode:    n.mode,
			owner:   n.owner,
			content: append([]byte(nil), n.content...),
		}
		if n.xattrs != nil {
			cp.xattrs = make(map[string][]byte, len(n.xattrs))
			for k, v := range n.xattrs {
				cp.xattrs[k] = append([]byte(nil), v...)
			}
		}
		out.nodes[p] = cp
	}
	return out
}
