// Package testbed builds the simulated deployment of the paper's
// Figure 6 in one place. A distribution signs and publishes packages to
// its repository, mirrors sync it, an organization writes a policy over
// those mirrors, and a TSR service resolves the policy's mirrors to
// them. The experiments, the tsrd daemon, the examples and the edge
// tests stand on a Testbed instead of writing that chain out again.
package testbed

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
	"tsr/internal/tpm"
	"tsr/internal/tsr"
	"tsr/internal/workload"
)

// Options configures a testbed. The zero value is three mirrors over
// an empty upstream and a service with every default.
type Options struct {
	// Scale, when positive, publishes the seeded synthetic population
	// of that scale (internal/workload) to the upstream.
	Scale float64
	// Seed drives the population and the default link model.
	Seed int64
	// Distro is the distribution's signing key. Nil uses a key shared
	// by every testbed of the process.
	Distro *keys.Pair
	// Mirrors is the number of mirrors; 0 means 3.
	Mirrors int
	// Host is the configuration the service starts with. Its zero
	// Platform, TPM, Clock (virtual), Link, EPC (the default cost
	// model) and Resolve (the testbed's mirrors) take the testbed's
	// defaults; the zero Local is Europe, as in the paper.
	Host tsr.Config
}

// Testbed is one simulated deployment: the upstream repository, its
// mirrors, a policy over them and a TSR service with no tenant yet.
// Publish adds packages to the upstream; Deploy adds tenants; Restart
// replaces the service as an origin crash and restart would.
type Testbed struct {
	Distro   *keys.Pair
	Upstream *repo.Repository
	Mirrors  []*mirror.Mirror
	// Policy names every mirror, trusts Distro, and seeds
	// configuration prediction with a root-only passwd and group.
	Policy policy.Policy
	// Host is the configuration the first Service was started with,
	// every default filled in: Restart takes its host hardware and
	// mirrors from it.
	Host tsr.Config
	// Service is the live origin: New starts it and Restart replaces
	// it.
	Service *tsr.Service
}

// New publishes the upstream, syncs the mirrors, writes the policy and
// starts the service.
func New(opts Options) (*Testbed, error) {
	tb := &Testbed{Distro: opts.Distro}
	if tb.Distro == nil {
		tb.Distro = keys.Shared.MustGet("testbed-distro")
	}
	tb.Upstream = repo.New("alpine", tb.Distro)
	if opts.Mirrors == 0 {
		opts.Mirrors = 3
	}
	for i := 0; i < opts.Mirrors; i++ {
		host := fmt.Sprintf("https://mirror%d/", i)
		tb.Mirrors = append(tb.Mirrors, mirror.New(host, netsim.Europe))
		tb.Policy.Mirrors = append(tb.Policy.Mirrors, policy.Mirror{Hostname: host, Location: "Europe"})
	}
	pem, err := tb.Distro.Public().MarshalPEM()
	if err != nil {
		return nil, err
	}
	tb.Policy.SignerKeys = []string{strings.TrimRight(string(pem), "\n")}
	tb.Policy.InitConfigFiles = []policy.ConfigFile{
		{Path: osimage.PasswdPath, Content: "root:x:0:0:root:/root:/bin/ash"},
		{Path: osimage.GroupPath, Content: "root:x:0:"},
	}

	if opts.Scale > 0 {
		if err := tb.publishPopulation(workload.New(workload.Config{Seed: opts.Seed, Scale: opts.Scale})); err != nil {
			return nil, err
		}
	}

	tb.Host = opts.Host
	if tb.Host.Platform == nil {
		if tb.Host.Platform, err = enclave.NewPlatform(keys.Shared.MustGet("testbed-quoting")); err != nil {
			return nil, err
		}
	}
	if tb.Host.TPM == nil {
		tb.Host.TPM = tpm.New(keys.Shared.MustGet("testbed-tpm"))
	}
	if tb.Host.Clock == nil {
		tb.Host.Clock = netsim.NewVirtualClock(time.Time{})
	}
	if tb.Host.Link == nil {
		tb.Host.Link = netsim.DefaultLinkModel(netsim.NewRNG(opts.Seed + 1))
	}
	if tb.Host.EPC == (enclave.CostModel{}) {
		tb.Host.EPC = enclave.DefaultCostModel()
	}
	if tb.Host.Resolve == nil {
		tb.Host.Resolve = tb.resolve
	}
	if tb.Service, err = tsr.New(tb.Host); err != nil {
		return nil, err
	}
	return tb, nil
}

// Restart starts a new service, the origin process after a restart,
// and makes it the testbed's Service. Only the process comes back:
// the upstream, the mirrors and whatever faults they carry stay as
// they are, and the service keeps the host's platform, TPM, clock,
// link and EPC cost model. cfg supplies the rest (the store,
// persistence and scheduler bounds); its Resolve, when set, replaces
// the testbed's mirrors. The caller restores tenants with RestoreAll.
func (tb *Testbed) Restart(cfg tsr.Config) (*tsr.Service, error) {
	h := tb.Host
	cfg.Platform, cfg.TPM, cfg.Clock, cfg.Link, cfg.EPC = h.Platform, h.TPM, h.Clock, h.Link, h.EPC
	if cfg.Resolve == nil {
		cfg.Resolve = h.Resolve
	}
	svc, err := tsr.New(cfg)
	if err != nil {
		return nil, err
	}
	tb.Service = svc
	return svc, nil
}

// publishPopulation signs and publishes every package gen specifies,
// in batches that bound how many built packages are held at once.
func (tb *Testbed) publishPopulation(gen *workload.Generator) error {
	var batch []*apk.Package
	for _, spec := range gen.Specs() {
		p, err := gen.Build(spec)
		if err != nil {
			return err
		}
		if batch = append(batch, p); len(batch) == 64 {
			if err := tb.Publish(batch...); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return tb.Publish(batch...)
}

// resolve is the service's mirror lookup: a policy mirror is the
// testbed mirror of the same hostname.
func (tb *Testbed) resolve(pm policy.Mirror) (quorum.Source, tsr.PackageFetcher, error) {
	for _, m := range tb.Mirrors {
		if m.Hostname == pm.Hostname {
			return m, m, nil
		}
	}
	return nil, nil, fmt.Errorf("testbed: unknown mirror %q (the testbed serves https://mirror0/ to https://mirror%d/)", pm.Hostname, len(tb.Mirrors)-1)
}

// Publish signs each package that carries no signature yet with
// Distro, publishes them all as one upstream generation and syncs
// every mirror. A package signed beforehand keeps only its own
// signatures. Publishing nothing does nothing.
func (tb *Testbed) Publish(pkgs ...*apk.Package) error {
	if len(pkgs) == 0 {
		return nil
	}
	for _, p := range pkgs {
		if len(p.Signatures) > 0 {
			continue
		}
		if err := apk.Sign(p, tb.Distro); err != nil {
			return err
		}
	}
	if err := tb.Upstream.Publish(pkgs...); err != nil {
		return err
	}
	for _, m := range tb.Mirrors {
		m.Sync(tb.Upstream)
	}
	return nil
}

// Deploy deploys pol on the testbed's service and returns the new
// tenant, not yet refreshed.
func (tb *Testbed) Deploy(pol policy.Policy) (*tsr.Repo, error) {
	id, _, _, err := tb.Service.DeployPolicy(pol.Marshal())
	if err != nil {
		return nil, err
	}
	return tb.Service.Repo(id)
}
