// Package workload generates the synthetic Alpine-like package
// population the experiments run on. It is calibrated to the paper's
// measurements of Alpine v3.11:
//
//   - Table 1: 5665 main + 5916 community packages; 97.6% carry no
//     scripts; of the scripted rest, 81% are unsafe;
//   - Table 2: the per-operation package counts, including overlaps
//     (e.g. the two packages that create a user AND set an empty
//     password and shell — the CVE-2019-5021 analogues §4.2 reports);
//   - Figures 8-9: heavy-tailed file counts and package sizes
//     (log-normal bulk plus a Pareto tail that exceeds the SGX EPC).
//
// Packages are materialized lazily and deterministically: Build(spec)
// always returns identical bytes for the same seed, so experiments are
// reproducible and the full 3 GB repository never needs to be resident.
package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"tsr/internal/apk"
	"tsr/internal/netsim"
	"tsr/internal/script"
)

// Category is the script profile of a generated package. Categories
// encode the Table 2 rows including the observed overlaps.
type Category int

const (
	// CatNoScript: no installation scripts (97.6% of packages).
	CatNoScript Category = iota
	// CatFS: filesystem-structure changes only (safe).
	CatFS
	// CatText: read-only text processing (safe).
	CatText
	// CatEmpty: conditional checks / display only (safe).
	CatEmpty
	// CatConfig: modifies existing configuration files (unsafe,
	// unsupported by TSR).
	CatConfig
	// CatShell: activates a new login shell (unsafe, unsupported).
	CatShell
	// CatUserGroup: creates a service user/group (unsafe, sanitizable).
	CatUserGroup
	// CatUserGroupFS: user/group creation plus filesystem changes.
	CatUserGroupFS
	// CatUserGroupText: user/group creation plus text processing.
	CatUserGroupText
	// CatUserGroupShell: user/group creation plus shell activation AND
	// an empty password — the CVE-2019-5021-style packages.
	CatUserGroupShell
	// CatUserGroupEmptyFile: user/group creation plus empty-file
	// creation.
	CatUserGroupEmptyFile
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	names := [...]string{
		"no-script", "fs", "text", "empty", "config", "shell",
		"usergroup", "usergroup+fs", "usergroup+text",
		"usergroup+shell", "usergroup+emptyfile",
	}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// HasScript reports whether packages of this category carry scripts.
func (c Category) HasScript() bool { return c != CatNoScript }

// CreatesAccounts reports whether the category creates users/groups.
func (c Category) CreatesAccounts() bool {
	switch c {
	case CatUserGroup, CatUserGroupFS, CatUserGroupText, CatUserGroupShell, CatUserGroupEmptyFile:
		return true
	}
	return false
}

// SafeWithoutTSR mirrors Table 1's "Safe" column for scripted packages.
func (c Category) SafeWithoutTSR() bool {
	switch c {
	case CatNoScript, CatFS, CatText, CatEmpty:
		return true
	}
	return false
}

// SupportedByTSR reports whether TSR can sanitize the category
// (Table 2 "TSR" column: config changes and shell activation are
// rejected).
func (c Category) SupportedByTSR() bool {
	switch c {
	case CatConfig, CatShell, CatUserGroupShell:
		return false
	}
	return true
}

// repoPlan is the per-repository category census at full scale.
type repoPlan struct {
	name   string
	counts map[Category]int
}

// fullPlans returns the Table 1/Table 2 calibration. The overlap
// structure reconciles both tables exactly:
//
//	main:      rows FS=30 Empty=5 Text=17 Config=11 EmptyFile=1 UG=97 Shell=4
//	community: rows FS=15 Empty=17 Text=19 Config=7 EmptyFile=0 UG=104 Shell=6
func fullPlans() []repoPlan {
	return []repoPlan{
		{
			name: "main",
			counts: map[Category]int{
				CatNoScript:           5531,
				CatFS:                 7,
				CatText:               12,
				CatEmpty:              5,
				CatConfig:             11,
				CatShell:              2,
				CatUserGroup:          66,
				CatUserGroupFS:        23,
				CatUserGroupText:      5,
				CatUserGroupShell:     2,
				CatUserGroupEmptyFile: 1,
			},
		},
		{
			name: "community",
			counts: map[Category]int{
				CatNoScript:           5772,
				CatFS:                 4,
				CatText:               8,
				CatEmpty:              17,
				CatConfig:             7,
				CatShell:              4,
				CatUserGroup:          80,
				CatUserGroupFS:        11,
				CatUserGroupText:      11,
				CatUserGroupShell:     2,
				CatUserGroupEmptyFile: 0,
			},
		},
	}
}

// Config parameterizes the generator.
type Config struct {
	// Seed makes the population reproducible.
	Seed int64
	// Scale scales package counts (1.0 = the full 11,581 packages).
	// Scripted categories are kept at a minimum of their full-scale
	// count's sign (at least 1 if nonzero) so every Table 2 row stays
	// populated; the CVE-style packages are always present.
	Scale float64
	// MeanFiles shifts the file-count distribution (default ~4 median).
	MeanFiles float64
	// EPCTailProb is the probability that a package draws its size from
	// the Pareto tail that exceeds the SGX EPC (default 0.001).
	EPCTailProb float64
}

// Spec describes one package before materialization.
type Spec struct {
	Name     string
	Version  string
	Repo     string // "main" or "community"
	Category Category
	// Svc is the service account name for account-creating packages.
	Svc string
	// FileCount and TotalSize drive the data segment.
	FileCount int
	TotalSize int64
	Depends   []string
}

// Generator produces package specs and materializes packages.
type Generator struct {
	cfg   Config
	specs []Spec
}

// New builds the deterministic package population.
func New(cfg Config) *Generator {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.EPCTailProb == 0 {
		cfg.EPCTailProb = 0.001
	}
	g := &Generator{cfg: cfg}
	rng := netsim.NewRNG(cfg.Seed)
	for _, plan := range fullPlans() {
		for _, cat := range allCategories() {
			full := plan.counts[cat]
			n := scaledCount(full, cfg.Scale)
			for i := 0; i < n; i++ {
				g.specs = append(g.specs, g.makeSpec(rng, plan.name, cat, i))
			}
		}
	}
	// Sprinkle dependencies on earlier packages (30% of packages get
	// 1-3 deps), mimicking the dependency graph density.
	for i := range g.specs {
		if i == 0 || rng.Float64() > 0.3 {
			continue
		}
		nDeps := 1 + rng.Intn(3)
		seen := map[string]bool{}
		for d := 0; d < nDeps; d++ {
			dep := g.specs[rng.Intn(i)].Name
			if !seen[dep] {
				seen[dep] = true
				g.specs[i].Depends = append(g.specs[i].Depends, dep)
			}
		}
	}
	return g
}

func allCategories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// scaledCount scales a full-population count, keeping nonzero
// categories populated and the CVE pair intact.
func scaledCount(full int, scale float64) int {
	if full == 0 {
		return 0
	}
	n := int(math.Round(float64(full) * scale))
	if n < 1 {
		n = 1
	}
	if full == 2 && scale >= 0.01 {
		n = 2 // keep both CVE-style packages at any reasonable scale
	}
	return n
}

func (g *Generator) makeSpec(rng *netsim.RNG, repoName string, cat Category, i int) Spec {
	name := fmt.Sprintf("%s-%s-%04d", repoName, cat, i)
	spec := Spec{
		Name:     name,
		Version:  "1.0-r0",
		Repo:     repoName,
		Category: cat,
	}
	if cat.CreatesAccounts() {
		spec.Svc = fmt.Sprintf("svc-%s-%s-%04d", repoName, shortCat(cat), i)
	}
	// File counts and sizes are calibrated so that the per-package
	// signature overhead of Figure 9 lands near the paper's
	// percentiles: the median Alpine package is small (~12 KB) with
	// ~8 files, so the 256-byte signatures add ~10-15% at the median.
	mean := g.cfg.MeanFiles
	if mean == 0 {
		mean = 2.1
	}
	spec.FileCount = clampInt(int(math.Round(rng.LogNormal(mean, 1.2))), 1, 3000)
	if rng.Float64() < g.cfg.EPCTailProb {
		// EPC-busting package: 130-260 MB uncompressed.
		spec.TotalSize = int64(rng.Pareto(130e6, 3))
		if spec.TotalSize > 260e6 {
			spec.TotalSize = 260e6
		}
	} else {
		spec.TotalSize = int64(rng.LogNormal(math.Log(12e3), 2.0))
		if spec.TotalSize < 256 {
			spec.TotalSize = 256
		}
		if spec.TotalSize > 64e6 {
			spec.TotalSize = 64e6
		}
	}
	return spec
}

func shortCat(c Category) string {
	switch c {
	case CatUserGroup:
		return "ug"
	case CatUserGroupFS:
		return "ugfs"
	case CatUserGroupText:
		return "ugtx"
	case CatUserGroupShell:
		return "ugsh"
	case CatUserGroupEmptyFile:
		return "ugef"
	default:
		return "x"
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Specs returns the package population.
func (g *Generator) Specs() []Spec { return g.specs }

// SpecsByRepo returns the specs of one repository ("main"/"community").
func (g *Generator) SpecsByRepo(repoName string) []Spec {
	var out []Spec
	for _, s := range g.specs {
		if s.Repo == repoName {
			out = append(out, s)
		}
	}
	return out
}

// Build materializes the package for a spec. Content is deterministic
// in (seed, spec.Name, spec.Version).
func (g *Generator) Build(spec Spec) (*apk.Package, error) {
	p := &apk.Package{
		Name:    spec.Name,
		Version: spec.Version,
		Arch:    "x86_64",
		Depends: append([]string(nil), spec.Depends...),
	}
	if src := g.scriptFor(spec); src != "" {
		// Validate the generated script parses; a generator bug here
		// would silently skew the census.
		if _, err := script.Parse(src); err != nil {
			return nil, fmt.Errorf("workload: generated script for %s: %w", spec.Name, err)
		}
		p.Scripts = map[string]string{"post-install": src}
	}
	p.Files = g.filesFor(spec)
	return p, nil
}

// scriptFor renders the category's installation script.
func (g *Generator) scriptFor(spec Spec) string {
	name, svc := spec.Name, spec.Svc
	switch spec.Category {
	case CatNoScript:
		return ""
	case CatFS:
		return fmt.Sprintf("mkdir -p /var/lib/%[1]s\nchmod 750 /var/lib/%[1]s\n", name)
	case CatText:
		return "grep root /etc/passwd\nsed s/root/root/ /etc/group\n"
	case CatEmpty:
		return "# maintenance notes\nif [ -f /etc/motd ]; then\n\techo configured\nfi\nexit 0\n"
	case CatConfig:
		// Rewrites a config file the package itself ships — the
		// unpredictable in-place modification TSR rejects.
		return fmt.Sprintf("sed -i s/placeholder/generated/ /etc/%s.conf\n", name)
	case CatShell:
		return fmt.Sprintf("add-shell /usr/bin/%s-sh\n", name)
	case CatUserGroup:
		return fmt.Sprintf("addgroup -S %[1]s\nadduser -S -G %[1]s -s /sbin/nologin -h /var/lib/%[1]s %[1]s\n", svc)
	case CatUserGroupFS:
		return fmt.Sprintf("addgroup -S %[1]s\nadduser -S -G %[1]s -s /sbin/nologin %[1]s\nmkdir -p /var/lib/%[1]s\nchown %[1]s /var/lib/%[1]s\n", svc)
	case CatUserGroupText:
		return fmt.Sprintf("addgroup -S %[1]s\nadduser -S -G %[1]s -s /sbin/nologin %[1]s\ngrep %[1]s /etc/passwd\n", svc)
	case CatUserGroupShell:
		// The CVE-2019-5021 analogue: interactive shell, empty password,
		// plus a shell activation.
		return fmt.Sprintf("addgroup -S %[1]s\nadduser -S -G %[1]s -s /bin/ash %[1]s\npasswd -d %[1]s\nadd-shell /usr/bin/%[2]s-sh\n", svc, spec.Name)
	case CatUserGroupEmptyFile:
		return fmt.Sprintf("addgroup -S %[1]s\nadduser -S -G %[1]s -s /sbin/nologin %[1]s\ntouch /var/run/%[1]s.pid\n", svc)
	default:
		return ""
	}
}

// filesFor renders the data segment: one binary plus libraries/shared
// data, sizes split deterministically to sum to spec.TotalSize.
func (g *Generator) filesFor(spec Spec) []apk.File {
	n := spec.FileCount
	sizes := splitSizes(spec.TotalSize, n, g.cfg.Seed, spec.Name)
	files := make([]apk.File, 0, n+1)
	for i := 0; i < n; i++ {
		var path string
		switch {
		case i == 0:
			path = fmt.Sprintf("/usr/bin/%s", spec.Name)
		case i%3 == 1:
			path = fmt.Sprintf("/usr/lib/%s/lib%d.so", spec.Name, i)
		default:
			path = fmt.Sprintf("/usr/share/%s/data%d", spec.Name, i)
		}
		files = append(files, apk.File{
			Path:    path,
			Mode:    0o755,
			Content: fill(g.cfg.Seed, spec.Name+spec.Version, i, sizes[i]),
		})
	}
	if spec.Category == CatConfig {
		files = append(files, apk.File{
			Path:    fmt.Sprintf("/etc/%s.conf", spec.Name),
			Mode:    0o644,
			Content: []byte("key=placeholder\n"),
		})
	}
	if spec.Category == CatShell || spec.Category == CatUserGroupShell {
		files = append(files, apk.File{
			Path:    fmt.Sprintf("/usr/bin/%s-sh", spec.Name),
			Mode:    0o755,
			Content: []byte("#!shell " + spec.Name),
		})
	}
	return files
}

// splitSizes deterministically splits total across n files with a
// dominant first file (the main binary), like real packages.
func splitSizes(total int64, n int, seed int64, name string) []int64 {
	sizes := make([]int64, n)
	if n == 1 {
		sizes[0] = total
		return sizes
	}
	// First file gets half; the rest split the remainder by a simple
	// deterministic weight sequence.
	sizes[0] = total / 2
	rest := total - sizes[0]
	var weightSum int64
	h := hash64(seed, name)
	weights := make([]int64, n-1)
	for i := range weights {
		h = xorshift(h)
		weights[i] = int64(h%1000) + 1
		weightSum += weights[i]
	}
	var used int64
	for i, w := range weights {
		s := rest * w / weightSum
		sizes[i+1] = s
		used += s
	}
	sizes[n-1] += rest - used // remainder to the last file
	return sizes
}

// fill produces deterministic, poorly compressible content of the given
// size (real binaries compress little, which matters for the archive
// processing costs of Table 4).
func fill(seed int64, name string, idx int, size int64) []byte {
	if size <= 0 {
		return nil
	}
	out := make([]byte, size)
	h := hash64(seed, fmt.Sprintf("%s/%d", name, idx))
	var word [8]byte
	for off := int64(0); off < size; off += 8 {
		h = xorshift(h)
		binary.LittleEndian.PutUint64(word[:], h)
		copy(out[off:], word[:])
	}
	return out
}

func hash64(seed int64, name string) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d|%s", seed, name)))
	v := binary.LittleEndian.Uint64(sum[:8])
	if v == 0 {
		v = 1 // xorshift must not start at zero
	}
	return v
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	if x == 0 {
		return 1
	}
	return x
}

// Census summarizes a population the way Tables 1 and 2 do.
type Census struct {
	Total         int
	WithoutScript int
	SafeScripts   int
	UnsafeScripts int
	// OpRows counts packages per Table 2 operation row.
	OpRows map[script.OpClass]int
	// Supported counts packages TSR can serve after sanitization.
	Supported int
}

// TakeCensus computes the census of a spec population.
func TakeCensus(specs []Spec) Census {
	c := Census{OpRows: make(map[script.OpClass]int)}
	for _, s := range specs {
		c.Total++
		if !s.Category.HasScript() {
			c.WithoutScript++
		} else if s.Category.SafeWithoutTSR() {
			c.SafeScripts++
		} else {
			c.UnsafeScripts++
		}
		if s.Category.SupportedByTSR() {
			c.Supported++
		}
		for _, row := range opRows(s.Category) {
			c.OpRows[row]++
		}
	}
	return c
}

// opRows maps a category to its Table 2 rows.
func opRows(c Category) []script.OpClass {
	switch c {
	case CatFS:
		return []script.OpClass{script.OpFilesystem}
	case CatText:
		return []script.OpClass{script.OpTextProcessing}
	case CatEmpty:
		return []script.OpClass{script.OpEmpty}
	case CatConfig:
		return []script.OpClass{script.OpConfigChange}
	case CatShell:
		return []script.OpClass{script.OpShellActivation}
	case CatUserGroup:
		return []script.OpClass{script.OpUserGroup}
	case CatUserGroupFS:
		return []script.OpClass{script.OpUserGroup, script.OpFilesystem}
	case CatUserGroupText:
		return []script.OpClass{script.OpUserGroup, script.OpTextProcessing}
	case CatUserGroupShell:
		return []script.OpClass{script.OpUserGroup, script.OpShellActivation}
	case CatUserGroupEmptyFile:
		return []script.OpClass{script.OpUserGroup, script.OpEmptyFile}
	default:
		return nil
	}
}
