// Package pkgmgr implements the apk-style package manager of §2.2: it
// fetches the signed metadata index, verifies package authenticity and
// integrity (signature over the control segment, size and hash against
// the index), resolves dependencies, executes installation scripts
// against the OS image, extracts files together with their PAX-carried
// extended attributes, and maintains the installed-package database at
// /lib/apk/db/installed.
//
// Every file the manager writes is measured by IMA (Figure 4, step 4),
// so installations are visible to the integrity monitoring system.
package pkgmgr

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"tsr/internal/apk"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/osimage"
	"tsr/internal/script"
	"tsr/internal/vfs"
)

// DBPath is the installed-package database file.
const DBPath = "/lib/apk/db/installed"

// Error sentinels.
var (
	ErrNoIndex          = errors.New("pkgmgr: no index fetched yet (run Refresh)")
	ErrAlreadyInstalled = errors.New("pkgmgr: package already installed")
	ErrNotInstalled     = errors.New("pkgmgr: package not installed")
	ErrSizeMismatch     = errors.New("pkgmgr: package size does not match index (endless data defense)")
	ErrHashMismatch     = errors.New("pkgmgr: package hash does not match index")
	ErrDependencyCycle  = errors.New("pkgmgr: dependency cycle")
	ErrScriptFailed     = errors.New("pkgmgr: installation script failed")
)

// Source serves an index and packages (satisfied by *mirror.Mirror and
// by the TSR client).
type Source interface {
	FetchIndex() (*index.Signed, error)
	FetchPackage(name string) ([]byte, error)
}

// NetModel optionally charges modeled network time for downloads on a
// virtual clock, so end-to-end latency experiments (Figure 11) include
// transfer time without real sleeps.
type NetModel struct {
	Local, Remote netsim.Continent
	Link          *netsim.LinkModel
	Clock         netsim.Clock
}

// charge returns the modeled transfer duration and advances the clock.
func (n *NetModel) charge(bytes int64) time.Duration {
	if n == nil || n.Link == nil {
		return 0
	}
	d := n.Link.RequestResponse(n.Local, n.Remote, bytes)
	if n.Clock != nil {
		n.Clock.Sleep(d)
	}
	return d
}

// Installed records one installed package in the database.
type Installed struct {
	Name    string
	Version string
	Hash    [32]byte
	Files   []string
}

// Report is the timing breakdown of one operation, the decomposition
// behind the paper's Figure 11 ("download and verify the update,
// prepare the system, unpack, launch installation scripts, copy files").
type Report struct {
	Download time.Duration // modeled network time
	Verify   time.Duration // signature + hash checks (measured)
	Script   time.Duration // installation script execution (measured)
	Extract  time.Duration // file extraction incl. xattrs (measured)
	Measure  time.Duration // IMA measurement (measured)
	// Bytes is the downloaded package size.
	Bytes int64
}

// Total returns the end-to-end duration.
func (r Report) Total() time.Duration {
	return r.Download + r.Verify + r.Script + r.Extract + r.Measure
}

// add accumulates another report (dependency installs).
func (r *Report) add(o Report) {
	r.Download += o.Download
	r.Verify += o.Verify
	r.Script += o.Script
	r.Extract += o.Extract
	r.Measure += o.Measure
	r.Bytes += o.Bytes
}

// Manager is the package manager for one OS image.
type Manager struct {
	img       *osimage.Image
	src       Source
	indexRing *keys.Ring
	pkgRing   *keys.Ring
	net       *NetModel

	idx       *index.Index
	floor     index.Floor // freshness floor of idx (rollback defense)
	installed map[string]Installed
	measured  map[string][32]byte // last-measured content hash per path
}

// New creates a manager. indexRing verifies the repository index
// signature; pkgRing verifies package signatures (the distribution keys
// from /etc/apk/keys, or the TSR public key after reconfiguration).
func New(img *osimage.Image, src Source, indexRing, pkgRing *keys.Ring) *Manager {
	return &Manager{
		img:       img,
		src:       src,
		indexRing: indexRing,
		pkgRing:   pkgRing,
		installed: make(map[string]Installed),
		measured:  make(map[string][32]byte),
	}
}

// SetNetModel enables modeled download time.
func (m *Manager) SetNetModel(n *NetModel) { m.net = n }

// Refresh fetches the metadata index and accepts it under
// index.AcceptIndex: a nil index ring, a bad signature, an index older
// than the current one (index.ErrStale) or a different one at its
// sequence (index.ErrFork) is refused and the current index kept.
func (m *Manager) Refresh() error {
	signed, err := m.src.FetchIndex()
	if err != nil {
		return fmt.Errorf("pkgmgr: fetching index: %w", err)
	}
	m.net.charge(signed.Size())
	ix, floor, err := index.AcceptIndex(m.floor, signed, m.indexRing)
	if err != nil {
		return fmt.Errorf("pkgmgr: verifying index: %w", err)
	}
	m.idx, m.floor = ix, floor
	return nil
}

// Index returns the current index (nil before Refresh).
func (m *Manager) Index() *index.Index { return m.idx }

// IsInstalled reports whether the named package is installed.
func (m *Manager) IsInstalled(name string) bool {
	_, ok := m.installed[name]
	return ok
}

// InstalledVersion returns the installed version of a package.
func (m *Manager) InstalledVersion(name string) (string, error) {
	inst, ok := m.installed[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNotInstalled, name)
	}
	return inst.Version, nil
}

// InstalledNames returns the sorted names of installed packages.
func (m *Manager) InstalledNames() []string {
	names := make([]string, 0, len(m.installed))
	for n := range m.installed {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Install installs the named package and its dependencies.
func (m *Manager) Install(name string) (Report, error) {
	if m.idx == nil {
		return Report{}, ErrNoIndex
	}
	if m.IsInstalled(name) {
		return Report{}, fmt.Errorf("%w: %q", ErrAlreadyInstalled, name)
	}
	return m.installRec(name, make(map[string]bool), false)
}

// Upgrade replaces an installed package with the index's version,
// running pre/post-upgrade scripts and removing files that the new
// version no longer ships.
func (m *Manager) Upgrade(name string) (Report, error) {
	if m.idx == nil {
		return Report{}, ErrNoIndex
	}
	old, ok := m.installed[name]
	if !ok {
		return Report{}, fmt.Errorf("%w: %q", ErrNotInstalled, name)
	}
	p, hash, rep, err := m.fetchVerified(name)
	if err != nil {
		return rep, err
	}
	start := time.Now()
	if err := m.runScript(p, "pre-upgrade"); err != nil {
		return rep, err
	}
	rep.Script += time.Since(start)

	// Remove files dropped by the new version.
	start = time.Now()
	newFiles := make(map[string]bool, len(p.Files))
	for _, f := range p.Files {
		newFiles[f.Path] = true
	}
	for _, path := range old.Files {
		if !newFiles[path] {
			if err := m.img.FS.RemoveAll(path); err != nil {
				return rep, fmt.Errorf("pkgmgr: upgrading %s: %w", name, err)
			}
			delete(m.measured, path)
		}
	}
	if err := m.extract(p); err != nil {
		return rep, err
	}
	rep.Extract += time.Since(start)

	start = time.Now()
	if err := m.runScript(p, "post-upgrade"); err != nil {
		return rep, err
	}
	rep.Script += time.Since(start)

	start = time.Now()
	if err := m.measureAfterChange(p); err != nil {
		return rep, err
	}
	rep.Measure += time.Since(start)

	m.recordInstalled(p, hash)
	if err := m.writeDB(); err != nil {
		return rep, err
	}
	return rep, nil
}

// Remove uninstalls a package (no dependency checking — matching apk
// del's permissiveness for leaf experiments).
func (m *Manager) Remove(name string) error {
	inst, ok := m.installed[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotInstalled, name)
	}
	for _, path := range inst.Files {
		if err := m.img.FS.RemoveAll(path); err != nil {
			return fmt.Errorf("pkgmgr: removing %s: %w", name, err)
		}
		delete(m.measured, path)
	}
	delete(m.installed, name)
	return m.writeDB()
}

// installRec installs name after its dependencies. visiting detects
// cycles; upgrade selects the upgrade script path.
func (m *Manager) installRec(name string, visiting map[string]bool, upgrade bool) (Report, error) {
	if visiting[name] {
		return Report{}, fmt.Errorf("%w: via %q", ErrDependencyCycle, name)
	}
	visiting[name] = true
	defer delete(visiting, name)

	entry, err := m.idx.Lookup(name)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	for _, dep := range entry.Depends {
		if m.IsInstalled(dep) {
			continue
		}
		depRep, err := m.installRec(dep, visiting, false)
		rep.add(depRep)
		if err != nil {
			return rep, err
		}
	}

	p, hash, fetchRep, err := m.fetchVerified(name)
	rep.add(fetchRep)
	if err != nil {
		return rep, err
	}

	start := time.Now()
	if err := m.runScript(p, "pre-install"); err != nil {
		return rep, err
	}
	rep.Script += time.Since(start)

	start = time.Now()
	if err := m.extract(p); err != nil {
		return rep, err
	}
	rep.Extract += time.Since(start)

	start = time.Now()
	if err := m.runScript(p, "post-install"); err != nil {
		return rep, err
	}
	rep.Script += time.Since(start)

	start = time.Now()
	if err := m.measureAfterChange(p); err != nil {
		return rep, err
	}
	rep.Measure += time.Since(start)

	m.recordInstalled(p, hash)
	if err := m.writeDB(); err != nil {
		return rep, err
	}
	return rep, nil
}

// fetchVerified downloads a package and performs the index size/hash
// checks plus the signature verification. It returns the decoded
// package and the content hash its bytes were checked against.
func (m *Manager) fetchVerified(name string) (*apk.Package, [32]byte, Report, error) {
	var rep Report
	entry, err := m.idx.Lookup(name)
	if err != nil {
		return nil, [32]byte{}, rep, err
	}
	raw, err := m.src.FetchPackage(name)
	if err != nil {
		return nil, [32]byte{}, rep, fmt.Errorf("pkgmgr: downloading %s: %w", name, err)
	}
	rep.Bytes = int64(len(raw))
	rep.Download = m.net.charge(int64(len(raw)))

	start := time.Now()
	if int64(len(raw)) != entry.Size {
		return nil, [32]byte{}, rep, fmt.Errorf("%w: %s: index %d, wire %d", ErrSizeMismatch, name, entry.Size, len(raw))
	}
	if !entry.Matches(raw) {
		return nil, [32]byte{}, rep, fmt.Errorf("%w: %s", ErrHashMismatch, name)
	}
	p, _, err := apk.VerifyRaw(raw, m.pkgRing)
	rep.Verify = time.Since(start)
	if err != nil {
		return nil, [32]byte{}, rep, err
	}
	return p, entry.Hash, rep, nil
}

// runScript executes the named hook against the OS image.
func (m *Manager) runScript(p *apk.Package, hook string) error {
	src, ok := p.Scripts[hook]
	if !ok {
		return nil
	}
	parsed, err := script.Parse(src)
	if err != nil {
		return fmt.Errorf("%w: %s %s: %v", ErrScriptFailed, p.Name, hook, err)
	}
	if err := script.Exec(parsed, m.img); err != nil {
		return fmt.Errorf("%w: %s %s: %v", ErrScriptFailed, p.Name, hook, err)
	}
	return nil
}

// extract writes package files (and their xattrs) into the filesystem.
func (m *Manager) extract(p *apk.Package) error {
	for _, f := range p.Files {
		if err := m.img.FS.WriteFile(f.Path, f.Content, f.Mode); err != nil {
			return fmt.Errorf("pkgmgr: extracting %s: %w", f.Path, err)
		}
		for name, value := range f.Xattrs {
			if err := m.img.FS.SetXattr(f.Path, name, value); err != nil {
				return fmt.Errorf("pkgmgr: xattr on %s: %w", f.Path, err)
			}
		}
	}
	return nil
}

// measureAfterChange measures every package file plus any predicted
// configuration file whose content changed since its last measurement —
// modeling IMA's measure-on-next-load of modified files. Each file is
// hashed once, by IMA.MeasureChanged.
func (m *Manager) measureAfterChange(p *apk.Package) error {
	paths := make([]string, 0, len(p.Files)+4)
	for _, f := range p.Files {
		paths = append(paths, f.Path)
	}
	paths = append(paths, osimage.ConfigDigestPaths()...)
	for _, path := range paths {
		e, err := m.img.IMA.MeasureChanged(path, m.measured[path])
		if err != nil {
			if strings.HasPrefix(path, "/etc/") && (errors.Is(err, vfs.ErrNotExist) || errors.Is(err, vfs.ErrIsDir)) {
				continue // config file not present on this image
			}
			return err
		}
		m.measured[path] = e.FileHash
	}
	return nil
}

// recordInstalled records p as installed from the package bytes whose
// hash, checked against the signed index, is hash.
func (m *Manager) recordInstalled(p *apk.Package, hash [32]byte) {
	files := make([]string, 0, len(p.Files))
	for _, f := range p.Files {
		files = append(files, f.Path)
	}
	sort.Strings(files)
	m.installed[p.Name] = Installed{
		Name:    p.Name,
		Version: p.Version,
		Hash:    hash,
		Files:   files,
	}
}

// writeDB renders the installed database file.
func (m *Manager) writeDB() error {
	var b strings.Builder
	for _, name := range m.InstalledNames() {
		inst := m.installed[name]
		fmt.Fprintf(&b, "%s %s %x\n", inst.Name, inst.Version, inst.Hash)
	}
	return m.img.FS.WriteFile(DBPath, []byte(b.String()), 0o644)
}

// ForceVersion overwrites the recorded version of an installed package,
// in memory and in the database file. This is the experiment hook of
// §6.1/Figure 11: "we tamper with the OS configuration to pretend the
// installed package is outdated by modifying the package version number
// and its integrity hash stored in the file-based database".
func (m *Manager) ForceVersion(name, version string) error {
	inst, ok := m.installed[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotInstalled, name)
	}
	inst.Version = version
	inst.Hash = sha256.Sum256([]byte("tampered:" + version))
	m.installed[name] = inst
	return m.writeDB()
}
