// Edge-fanout demonstrates the untrusted edge replication tier: trust
// travels with the data (the enclave-signed index, content-addressed
// packages), so any host can replicate a TSR origin and be verified
// end-to-end by the client. The walkthrough stands up an origin with
// three edge replicas on three continents, shows delta syncs and the
// pull-through cache absorbing origin traffic, and then turns one
// replica byzantine — replaying a frozen snapshot and tampering with
// package bytes — to show clients converging on the honest edges with
// zero unverified bytes accepted.
//
// Run: go run ./examples/edge-fanout
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"tsr/internal/apk"
	"tsr/internal/edge"
	"tsr/internal/enclave"
	"tsr/internal/keys"
	"tsr/internal/mirror"
	"tsr/internal/netsim"
	"tsr/internal/policy"
	"tsr/internal/quorum"
	"tsr/internal/repo"
	"tsr/internal/store"
	"tsr/internal/tpm"
	"tsr/internal/tsr"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	// --- the origin: a TSR service with one refreshed tenant ----------
	distro, err := keys.Generate("alpine@example.org")
	if err != nil {
		return err
	}
	origin := repo.New("alpine-main", distro)
	publish := func(name, version string) error {
		p := &apk.Package{
			Name: name, Version: version,
			Files: []apk.File{{Path: "/usr/bin/" + name, Mode: 0o755, Content: []byte(name + version)}},
		}
		if err := apk.Sign(p, distro); err != nil {
			return err
		}
		if err := origin.Publish(p); err != nil {
			return err
		}
		return nil
	}
	for _, name := range []string{"busybox", "musl", "openssl"} {
		if err := publish(name, "1.0-r0"); err != nil {
			return err
		}
	}

	mirrors := map[string]*mirror.Mirror{}
	var pol policy.Policy
	for i := 0; i < 3; i++ {
		host := fmt.Sprintf("https://mirror%d/", i)
		m := mirror.New(host, netsim.Europe)
		m.Sync(origin)
		mirrors[host] = m
		pol.Mirrors = append(pol.Mirrors, policy.Mirror{Hostname: host, Location: "Europe"})
	}
	syncMirrors := func() {
		for _, m := range mirrors {
			m.Sync(origin)
		}
	}
	pem, err := distro.Public().MarshalPEM()
	if err != nil {
		return err
	}
	pol.SignerKeys = []string{strings.TrimRight(string(pem), "\n")}

	platform, err := enclave.NewPlatform(keys.Shared.MustGet("example-edge-quoting"))
	if err != nil {
		return err
	}
	svc, err := tsr.New(tsr.Config{
		Platform: platform,
		TPM:      tpm.New(keys.Shared.MustGet("example-edge-tpm")),
		Clock:    netsim.NewVirtualClock(time.Time{}),
		Link:     netsim.DefaultLinkModel(nil),
		Local:    netsim.Europe,
		Store:    store.NewMem(),
		EPC:      enclave.DefaultCostModel(),
		Resolve: func(m policy.Mirror) (quorum.Source, tsr.PackageFetcher, error) {
			mm, ok := mirrors[m.Hostname]
			if !ok {
				return nil, nil, fmt.Errorf("unknown mirror %q", m.Hostname)
			}
			return mm, mm, nil
		},
	})
	if err != nil {
		return err
	}
	id, _, _, err := svc.DeployPolicy(pol.Marshal())
	if err != nil {
		return err
	}
	tenant, err := svc.Repo(id)
	if err != nil {
		return err
	}
	if _, err := tenant.Refresh(); err != nil {
		return err
	}
	trust := keys.NewRing(tenant.PublicKey())
	fmt.Printf("origin: tenant %s refreshed, serving %s\n\n", id, short(tenant))

	// --- three edge replicas on three continents ----------------------
	fmt.Println("== edge tier: untrusted replicas, verified end-to-end ==")
	conts := []netsim.Continent{netsim.Europe, netsim.NorthAmerica, netsim.Oceania}
	replicas := make([]*edge.Replica, len(conts))
	endpoints := make([]edge.Endpoint, 0, len(conts)+1)
	for i, cont := range conts {
		replicas[i] = &edge.Replica{RepoID: id, Origin: tenant, Continent: cont, TrustRing: trust}
		if err := replicas[i].SyncCtx(ctx); err != nil {
			return err
		}
		fmt.Printf("edge-%d (%s): first sync -> full index fetch (etag %.16s...)\n",
			i, cont, replicas[i].ETag())
		endpoints = append(endpoints, edge.Endpoint{
			Name: fmt.Sprintf("edge-%d-%s", i, cont), Continent: cont, Fetcher: replicas[i]})
	}
	endpoints = append(endpoints, edge.Endpoint{Name: "origin", Continent: netsim.Europe, Fetcher: tenant})

	// A new origin generation reaches the replicas as a DELTA: only the
	// changed entries travel, under the origin's signature over the new
	// index, which each replica reproduces byte-for-byte and self-checks.
	if err := publish("openssl", "1.1-r0"); err != nil {
		return err
	}
	syncMirrors()
	if _, err := tenant.Refresh(); err != nil {
		return err
	}
	for i, rep := range replicas {
		if err := rep.SyncCtx(ctx); err != nil {
			return err
		}
		s := rep.Stats()
		fmt.Printf("edge-%d (%s): second sync -> delta (full=%d delta=%d)\n",
			i, conts[i], s.FullSyncs, s.DeltaSyncs)
	}

	// --- a client in Oceania reads through the edge tier --------------
	fmt.Println("\n== client in Oceania: latency-aware selection + pull-through cache ==")
	client := &edge.FailoverClient{
		Local:     netsim.Oceania,
		Link:      netsim.DefaultLinkModel(nil),
		Clock:     netsim.NewVirtualClock(time.Time{}),
		TrustRing: trust,
		Endpoints: endpoints,
	}
	if _, err := client.FetchIndex(); err != nil {
		return err
	}
	for _, name := range []string{"busybox", "musl", "openssl"} {
		if _, err := client.FetchPackage(name); err != nil {
			return err
		}
	}
	for _, name := range []string{"busybox", "musl", "openssl"} { // warm pass
		if _, err := client.FetchPackage(name); err != nil {
			return err
		}
	}
	fmt.Printf("client served by: %v\n", client.Stats().PerEndpoint)
	oce := replicas[2].Stats()
	fmt.Printf("edge-2 (Oceania): %d reads, %d cache hits, %d origin pulls — the origin saw %d of the client's %d package requests\n",
		oce.PackageReads, oce.PackageHits, oce.OriginPackages, oce.OriginPackages, 6)

	// --- byzantine replica: frozen snapshot replay --------------------
	fmt.Println("\n== byzantine edge: frozen replay + tampering, detected client-side ==")
	replicas[2].SetBehavior(edge.Freeze)                 // nearest to our client: replays the past
	replicas[1].SetBehavior(edge.Corrupt)                // tampers with package bodies (its index stays honest)
	if err := publish("openssl", "1.2-r0"); err != nil { // the update the frozen edge hides
		return err
	}
	syncMirrors()
	if _, err := tenant.Refresh(); err != nil {
		return err
	}
	// Everyone but the frozen replica follows the origin (a Corrupt
	// replica relays the signed index faithfully — it can only lie in
	// package bodies, and those are hash-checked).
	for _, rep := range replicas[:2] {
		if err := rep.SyncCtx(ctx); err != nil {
			return err
		}
	}

	fresh := &edge.FailoverClient{
		Local:     netsim.Oceania,
		Link:      netsim.DefaultLinkModel(nil),
		Clock:     netsim.NewVirtualClock(time.Time{}),
		TrustRing: trust,
		Endpoints: endpoints,
		QuorumK:   3, // cross-check the index across 3 edges
	}
	signed, err := fresh.FetchIndex()
	if err != nil {
		return err
	}
	ix, err := signed.Verify(trust)
	if err != nil {
		return err
	}
	e, _ := ix.Lookup("openssl")
	fmt.Printf("quorum index read: the frozen edge is outvoted by current ones -> openssl %s (sequence %d)\n",
		e.Version, ix.Sequence)
	if _, err := fresh.FetchPackage("openssl"); err != nil {
		return err
	}
	s := fresh.Stats()
	fmt.Printf("package fetch: %d tampered responses rejected, %d failovers -> served verified bytes by %v\n",
		s.RejectedBytes, s.Failovers, served(s.PerEndpoint))
	fmt.Println("\nzero unverified bytes accepted: every index carried the origin's signature, every package hashed to its signed entry")
	return nil
}

func short(tenant *tsr.Repo) string {
	signed, etag, err := tenant.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%d index bytes under etag %.16s...", len(signed.Raw), etag)
}

func served(per map[string]int64) []string {
	var out []string
	for name, n := range per {
		if n > 0 {
			out = append(out, fmt.Sprintf("%s(%d)", name, n))
		}
	}
	return out
}
