// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) on the synthetic workload. Each experiment
// returns a Table whose rows mirror the paper's presentation, so the
// output of cmd/experiments can be compared side by side with the
// published numbers (see EXPERIMENTS.md for the comparison).
//
// Timing methodology: CPU-bound work (sanitization, crypto, archive
// processing) is measured for real; network transfers and SGX overhead
// are modeled virtual time (see DESIGN.md, "Substitutions").
package experiments

import (
	"fmt"
	"strings"
	"time"

	"tsr/internal/apk"
	"tsr/internal/enclave"
	"tsr/internal/keys"
	"tsr/internal/mirror"
	"tsr/internal/netsim"
	"tsr/internal/osimage"
	"tsr/internal/policy"
	"tsr/internal/quorum"
	"tsr/internal/repo"
	"tsr/internal/store"
	"tsr/internal/tpm"
	"tsr/internal/tsr"
	"tsr/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale scales the package population (1.0 = full 11,581 packages).
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// MaxPackages caps per-package experiment loops (0 = no cap); used
	// to keep the end-to-end install experiment tractable by default.
	MaxPackages int
	// QuorumTrials is the number of reads per Figure 13 cell
	// (default 20, matching the paper's methodology).
	QuorumTrials int
	// EPC overrides the SGX cost model (zero value: paper defaults).
	EPC enclave.CostModel
	// BenchDir, when set, is where experiments that emit machine-readable
	// BENCH_*.json results (fleet-soak) write them. Empty disables
	// emission.
	BenchDir string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.03
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EPC == (enclave.CostModel{}) {
		c.EPC = enclave.DefaultCostModel()
	}
	if c.QuorumTrials <= 0 {
		c.QuorumTrials = 20
	}
	return c
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// World is the full simulated deployment used by the latency and
// end-to-end experiments: original repository, mirrors, and a TSR
// service with one deployed tenant repository.
type World struct {
	Cfg       Config
	Gen       *workload.Generator
	Repo      *repo.Repository
	Mirrors   []*mirror.Mirror
	Service   *tsr.Service
	Tenant    *tsr.Repo
	Clock     *netsim.VirtualClock
	Distro    *keys.Pair
	PolicyRaw []byte
}

// mirrorLayout describes the mirror fleet to build.
type mirrorSpec struct {
	host      string
	continent netsim.Continent
	location  string
}

// NewWorld builds the deployment: generates the scaled population,
// publishes it to the original repository, syncs the mirrors, deploys a
// policy, and runs the initial Refresh.
func NewWorld(cfg Config, mirrors []mirrorSpec, dataCenterLink bool) (*World, error) {
	platform, err := enclave.NewPlatform(keys.Shared.MustGet("exp-quoting"))
	if err != nil {
		return nil, err
	}
	w, err := newWorld(cfg, mirrors, dataCenterLink, tsr.Config{
		Platform: platform,
		TPM:      newHostTPM(),
		Store:    store.NewMem(),
	})
	if err != nil {
		return nil, err
	}
	id, _, _, err := w.Service.DeployPolicy(w.PolicyRaw)
	if err != nil {
		return nil, err
	}
	w.Tenant, err = w.Service.Repo(id)
	if err != nil {
		return nil, err
	}
	if _, err := w.Tenant.Refresh(); err != nil {
		return nil, err
	}
	return w, nil
}

// newWorld publishes the population, syncs the mirrors, writes the
// policy, and starts a service on host — the caller's store, TPM, SGX
// platform and scheduler bounds, which the fleet soak carries across
// simulated process lifetimes — without deploying a tenant.
func newWorld(cfg Config, mirrors []mirrorSpec, dataCenterLink bool, host tsr.Config) (*World, error) {
	cfg = cfg.withDefaults()
	if len(mirrors) == 0 {
		mirrors = []mirrorSpec{
			{"https://mirror0/", netsim.Europe, "Europe"},
			{"https://mirror1/", netsim.Europe, "Europe"},
			{"https://mirror2/", netsim.Europe, "Europe"},
		}
	}
	distro, err := keys.Shared.Get("exp-distro-key")
	if err != nil {
		return nil, err
	}
	w := &World{
		Cfg:    cfg,
		Gen:    workload.New(workload.Config{Seed: cfg.Seed, Scale: cfg.Scale}),
		Repo:   repo.New("alpine", distro),
		Clock:  netsim.NewVirtualClock(time.Time{}),
		Distro: distro,
	}

	// Publish the population.
	var pkgs []*apk.Package
	for _, spec := range w.Gen.Specs() {
		p, err := w.Gen.Build(spec)
		if err != nil {
			return nil, err
		}
		if err := apk.Sign(p, distro); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
		// Publish in batches to bound memory.
		if len(pkgs) >= 64 {
			if err := w.Repo.Publish(pkgs...); err != nil {
				return nil, err
			}
			pkgs = pkgs[:0]
		}
	}
	if len(pkgs) > 0 {
		if err := w.Repo.Publish(pkgs...); err != nil {
			return nil, err
		}
	}

	byHost := make(map[string]*mirror.Mirror, len(mirrors))
	for _, ms := range mirrors {
		m := mirror.New(ms.host, ms.continent)
		m.Sync(w.Repo)
		w.Mirrors = append(w.Mirrors, m)
		byHost[ms.host] = m
	}

	// Policy.
	pem, err := distro.Public().MarshalPEM()
	if err != nil {
		return nil, err
	}
	pol := policy.Policy{
		SignerKeys: []string{strings.TrimRight(string(pem), "\n")},
		InitConfigFiles: []policy.ConfigFile{
			{Path: osimage.PasswdPath, Content: "root:x:0:0:root:/root:/bin/ash"},
			{Path: osimage.GroupPath, Content: "root:x:0:"},
		},
	}
	for _, ms := range mirrors {
		pol.Mirrors = append(pol.Mirrors, policy.Mirror{Hostname: ms.host, Location: ms.location})
	}
	w.PolicyRaw = pol.Marshal()

	link := netsim.DefaultLinkModel(netsim.NewRNG(cfg.Seed + 1))
	if dataCenterLink {
		link = netsim.DataCenterLinkModel(netsim.NewRNG(cfg.Seed + 1))
	}
	host.Clock = w.Clock
	host.Link = link
	host.Local = netsim.Europe
	host.EPC = cfg.EPC
	host.Resolve = func(m policy.Mirror) (quorum.Source, tsr.PackageFetcher, error) {
		mm, ok := byHost[m.Hostname]
		if !ok {
			return nil, nil, fmt.Errorf("experiments: unknown mirror %q", m.Hostname)
		}
		return mm, mm, nil
	}
	w.Service, err = tsr.New(host)
	if err != nil {
		return nil, err
	}
	return w, nil
}

func newHostTPM() *tpm.TPM {
	return tpm.New(keys.Shared.MustGet("exp-host-tpm"))
}

// fmtDuration renders a duration in the paper's preferred unit (ms with
// sub-ms precision).
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
}

// fmtMinutes renders minutes like Table 3.
func fmtMinutes(d time.Duration) string {
	return fmt.Sprintf("%.1f min", d.Minutes())
}

func fmtBytesMB(n int64) string {
	return fmt.Sprintf("%.0f MB", float64(n)/1e6)
}
