package vfs

import (
	"fmt"
	"sort"
)

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

// Count returns the number of nodes (including the root directory).
func (fs *FS) Count() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.nodes)
}
