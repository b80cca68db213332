// Package blobview exercises the blobview analyzer. The harness loads
// it under tsr/internal/edge: slices read from a store.Store or through
// tsr.GetVerified or tsr.StoredManifest, from the edge's fetchEntry or
// storedBase, from a PackageFetcher's or Mirror's FetchPackage, from an
// FS's Equal (the package manager's view of an installed file), or from
// a Repository's or Snapshot's package map, and slices handed to a
// store's Put or an FS's Adopt, are read-only.
package blobview

import (
	"crypto/sha256"

	"tsr/internal/index"
	"tsr/internal/store"
	"tsr/internal/tsr"
)

type Replica struct{ cache store.Store }

func (rep *Replica) fetchEntry(name string) ([]byte, error) { return rep.cache.Get(name) }

// storedBase stands in for the edge's diff-base read, a package-level
// function of the package loaded as tsr/internal/edge.
func storedBase(st store.Store, name string) ([]byte, *store.ChunkManifest) {
	raw, _ := st.Get(name)
	return raw, nil
}

type FailoverClient struct{ PkgCache store.Store }

// corruptHit flips a byte of the shared cache entry itself.
func corruptHit(st store.Store, key string) {
	raw, err := st.Get(key)
	if err != nil {
		return
	}
	raw[len(raw)/2] ^= 0xFF // want `raw is a read-only blob view \(it came from a store read\)`
}

// concreteStore reads through *store.Mem, which implements store.Store.
func concreteStore(m *store.Mem) {
	var raw, _ = m.Get("k")
	raw[0]++             // want `raw is a read-only blob view`
	copy(raw[1:], "ab")  // want `raw is a read-only blob view`
	copy(raw, []byte{1}) // want `raw is a read-only blob view`
}

func sources(rep *Replica, c *FailoverClient) {
	hit, _ := rep.fetchEntry("p")
	hit[0] = 1 // want `hit is a read-only blob view`
	if old, _ := storedBase(rep.cache, "p"); old != nil {
		old[0] = 2 // want `old is a read-only blob view`
	}
	if got, ok := tsr.GetVerified(c.PkgCache, "p", index.Entry{}); ok {
		got[0] = 4 // want `got is a read-only blob view \(it came from a store read\)`
	}
	blob, err := tsr.StoredManifest(c.PkgCache, "p", "p", index.Entry{}, nil)
	if err == nil {
		copy(blob, "x") // want `blob is a read-only blob view \(it came from a store read\)`
	}
}

// reuseAfterPut keeps writing into a buffer the store now owns.
func reuseAfterPut(st store.Store, buf []byte) {
	_ = st.Put("k", buf)
	buf[0] = 0 // want `buf is a read-only blob view \(it was handed to Put, which owns it\)`
}

// corruptCopy is the wanted shape for a writer: copy to a new name.
func corruptCopy(st store.Store, key string) []byte {
	raw, err := st.Get(key)
	if err != nil || len(raw) == 0 {
		return raw
	}
	out := append([]byte(nil), raw...)
	out[len(out)/2] ^= 0xFF
	return out
}

// verify only reads the view: hashing, slicing and ranging are fine.
func verify(st store.Store, key string, want [sha256.Size]byte) bool {
	raw, err := st.Get(key)
	if err != nil {
		return false
	}
	n := 0
	for _, b := range raw[:len(raw)/2] {
		n += int(b)
	}
	return n >= 0 && sha256.Sum256(raw) == want
}

// fresh buffers a caller allocated itself may be written freely.
func fresh(st store.Store) {
	buf := make([]byte, 8)
	buf[0] = 1
	copy(buf[1:], "x")
	_ = st.Put("k", append([]byte(nil), buf...))
	buf[2] = 2
}

// allowed shows the escape hatch, which needs a reason.
func allowed(st store.Store) {
	raw, _ := st.Get("scratch")
	//lint:allow blobview test-only scratch key that no reader shares
	raw[0] = 1
}

type PackageFetcher interface {
	FetchPackage(name string) ([]byte, error)
}

type Mirror struct{ snap *Snapshot }

func (m *Mirror) FetchPackage(name string) ([]byte, error) { return m.snap.Packages[name], nil }

type Snapshot struct{ Packages map[string][]byte }

type Repository struct {
	packages map[string][]byte
	names    map[string]string
}

// obtain writes into what a mirror served, shared with every mirror
// synced from the same snapshot.
func obtain(f PackageFetcher, m *Mirror) {
	raw, err := f.FetchPackage("p")
	if err != nil {
		return
	}
	raw[0] ^= 1 // want `raw is a read-only blob view \(it came from a mirror's FetchPackage\)`
	body, _ := m.FetchPackage("p")
	copy(body, "x") // want `body is a read-only blob view`
}

// corruptInPlace flips a byte of the snapshot's stored package.
func corruptInPlace(snap *Snapshot, r *Repository) {
	raw, ok := snap.Packages["p"]
	if ok && len(raw) > 0 {
		raw[len(raw)/2] ^= 0xFF // want `raw is a read-only blob view \(it is a repository's stored package\)`
	}
	stored := r.packages["p"]
	stored[0] = 0 // want `stored is a read-only blob view`
}

// corruptPrivately is the Corrupt mirror's wanted shape: flip a copy.
func corruptPrivately(snap *Snapshot) []byte {
	raw := snap.Packages["p"]
	out := append([]byte(nil), raw...)
	out[len(out)/2] ^= 0xFF
	return out
}

// otherMaps shows that only the package maps are views.
func otherMaps(r *Repository, local map[string][]byte) {
	b := local["p"]
	b[0] = 1
	n := []byte(r.names["p"])
	n[0] = 1
}

// FS stands in for vfs.FS: Equal hands out an installed file's stored
// bytes, and Adopt keeps the slice it is handed.
type FS struct{}

func (fs *FS) Equal(p string, content []byte) ([]byte, bool) { return content, true }

func (fs *FS) Adopt(p string, content []byte, mode uint32) error { return nil }

// install keeps the installed view of an unchanged file, and hands the
// filesystem its copy of a changed one; writing into either afterwards
// would change the image behind the filesystem's back.
func install(fs *FS, scratch []byte) {
	view, ok := fs.Equal("/f", scratch)
	if ok {
		copy(view, "x") // want `view is a read-only blob view \(it is an installed file's bytes\)`
		return
	}
	own := append([]byte(nil), scratch...)
	_ = fs.Adopt("/f", own, 0o644)
	own[0] = 1 // want `own is a read-only blob view \(it was handed to Adopt, which owns it\)`
	scratch[0] = 2
}
