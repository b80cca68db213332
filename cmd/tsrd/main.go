// Command tsrd runs a TSR server over a simulated deployment: it
// generates a synthetic Alpine-like repository, stands up mirrors,
// launches the TSR service in the simulated enclave, and serves the
// REST API of §5.2.
//
// Usage:
//
//	tsrd [-addr :8473] [-scale 0.02] [-seed 1] [-workers 4] [-auto-refresh 0]
//	     [-refresh-workers 16] [-sched-max-active 8]
//	     [-data-dir /var/lib/tsrd] [-fsync] [-host-state <path>]
//	     [-max-inflight 256] [-log-format text|json] [-debug-addr <addr>]
//
// Refresh and ingest cycles across every deployed repository run under
// one global scheduler (internal/sched): -refresh-workers bounds the
// total pipeline concurrency of the box (the per-repo -workers value
// only caps one repository's batch size within its leased share), and
// -sched-max-active bounds concurrently admitted cycles. Auto-refresh
// deadlines are staggered and jittered per repository so a fleet of
// tenants never fires as a thundering herd.
//
// The serving path is wrapped in the observability middleware
// (internal/obs): per-endpoint latency histograms, the in-flight
// gauge, and shed counts are exposed at GET /metrics, and
// -max-inflight bounds concurrently served requests — excess flash
// crowd load is shed with 429 + Retry-After instead of queueing
// unboundedly behind a saturated handler.
//
// With -data-dir the untrusted cache tier — original and sanitized
// packages, sealed sancache metadata, sealed repository checkpoints —
// lives on disk, and a restarted tsrd warm-boots: deployed
// repositories come back with their ids, policies, and signing keys,
// serve their previous signed index immediately, and the next refresh
// re-enters every unchanged package from the sealed sanitization cache
// without re-sanitizing. Nothing read from the data dir is trusted:
// blobs are hash-verified against signed indexes, metadata is sealed
// to the enclave identity, and a rolled-back data dir is rejected via
// the TPM monotonic counter (§5.5).
//
// The -host-state file models the trusted HARDWARE that survives a
// restart — the CPU's fused sealing root and the TPM's NV counter
// bank (plus, simulation bootstrap, the synthetic distro signing key).
// It defaults to <data-dir>.hoststate, deliberately OUTSIDE the data
// dir: the §5.5 adversary can snapshot and roll back the disk cache
// but cannot roll back hardware. Restart with the same -scale/-seed so
// the regenerated upstream world matches the persisted state.
//
// A client session:
//
//	curl -X POST --data-binary @policy.yaml localhost:8473/policies
//	curl -X POST localhost:8473/repos/<id>/refresh
//	curl localhost:8473/repos/<id>/index
//	curl -O localhost:8473/repos/<id>/packages/<name>
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sync"

	"tsr/internal/apk"
	"tsr/internal/daemon"
	"tsr/internal/enclave"
	"tsr/internal/keys"
	"tsr/internal/mirror"
	"tsr/internal/netsim"
	"tsr/internal/obs"
	"tsr/internal/policy"
	"tsr/internal/quorum"
	"tsr/internal/repo"
	"tsr/internal/store"
	"tsr/internal/tpm"
	"tsr/internal/trace"
	"tsr/internal/tsr"
	"tsr/internal/workload"
)

func main() { daemon.Main("tsrd", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tsrd", flag.ContinueOnError)
	addr := fs.String("addr", ":8473", "listen address")
	scale := fs.Float64("scale", 0.02, "synthetic repository scale")
	seed := fs.Int64("seed", 1, "workload seed")
	workers := fs.Int("workers", 4, "per-repository refresh batch cap (1 = the paper's sequential prototype)")
	refreshWorkers := fs.Int("refresh-workers", 16, "global refresh/ingest worker pool shared by every repository (0 = unbounded)")
	schedMaxActive := fs.Int("sched-max-active", 8, "max concurrently admitted refresh/ingest cycles across all repositories (0 = unbounded)")
	autoRefresh := fs.Duration("auto-refresh", 0, "refresh every deployed repository at this interval (0 disables); reads keep serving the previous snapshot while cycles run")
	dataDir := fs.String("data-dir", "", "durable untrusted cache + sealed checkpoints; restarts warm-boot deployed repositories")
	fsyncF := fs.Bool("fsync", false, "fsync every data-dir write (with -data-dir)")
	hostStatePath := fs.String("host-state", "", "trusted host hardware state (seal root, TPM counters); default <data-dir>.hoststate, keep OUTSIDE -data-dir")
	maxInflight := fs.Int64("max-inflight", 256, "admission control: max concurrently served requests, excess sheds with 429 (0 = unlimited)")
	logFormat := fs.String("log-format", "text", "operational log format: text or json (json lines carry trace_id/span_id for joining against /debug/traces)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (empty disables; keep it off the public listen address)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := obs.NewLogger(os.Stderr, *logFormat, "tsrd")
	if err != nil {
		return err
	}
	deps, err := openHost(*dataDir, *fsyncF, *hostStatePath, log)
	if err != nil {
		return err
	}
	svc, examplePolicy, err := buildService(*scale, *seed,
		svcLimits{workers: *workers, refreshWorkers: *refreshWorkers, schedMaxActive: *schedMaxActive}, deps, log)
	if err != nil {
		return err
	}
	if deps.persist {
		restored, err := svc.RestoreAll()
		if err != nil {
			return fmt.Errorf("restoring %s: %w", *dataDir, err)
		}
		for _, r := range restored {
			switch {
			case r.Warm:
				log.Info("restored repository warm (serving previous signed index, no re-sanitization)", "repo", r.ID)
			case r.RolledBack():
				log.Error("checkpoint REFUSED, counter mismatch — a rolled-back data dir, or a crash mid-checkpoint; repository is cold until the next refresh", "repo", r.ID, "err", r.Err)
			default:
				log.Warn("repository restored cold", "repo", r.ID, "err", r.Err)
			}
		}
		if len(restored) == 0 {
			log.Info("data dir holds no repositories; starting fresh")
		}
	}
	// The example policy is operator I/O, not telemetry: in text mode
	// it must stay a copy-pasteable YAML block (the documented workflow
	// extracts it from the log between the header and "listening"), so
	// only json mode folds it into the record (jq -r .policy).
	if *logFormat == "json" {
		log.Info("example policy for this deployment", "policy", examplePolicy)
	} else {
		fmt.Fprintf(os.Stderr, "tsrd: example policy for this deployment:\n%stsrd: end of example policy\n", examplePolicy)
	}
	tracer := trace.NewTracer(trace.Config{Tier: "origin"})
	if *autoRefresh > 0 {
		go daemon.AutoRefresh(ctx, svc, *autoRefresh, tracer, log)
		log.Info("auto-refresh enabled", "every", *autoRefresh)
	}
	if *debugAddr != "" {
		go daemon.ServePprof(ctx, *debugAddr, log)
	}
	log.Info("listening", "addr", *addr, "max_inflight", *maxInflight,
		"refresh_workers", *refreshWorkers, "sched_max_active", *schedMaxActive,
		"metrics", "/metrics", "traces", "/debug/traces")
	return daemon.Serve(ctx, *addr, tsr.Handler(svc),
		obs.Options{MaxInflight: *maxInflight, Tracer: tracer, Sched: svc.Scheduler()}, log)
}

// hostDeps are the host-side pieces a service is built on. The memory
// profile (no -data-dir) generates everything fresh; the durable
// profile reopens the data dir and the host-state file so sealed blobs
// unseal and the TPM counters carry over — modeling the same physical
// machine rebooting.
type hostDeps struct {
	store    tsr.Store
	tpm      *tpm.TPM
	platform *enclave.Platform
	distro   *keys.Pair
	persist  bool
}

// hostState is the JSON body of the -host-state file: the hardware
// that survives restarts. SealRoot is the CPU's fused sealing secret,
// TPMCounters the NV counter bank; DistroKeyPEM bootstraps the
// simulated upstream world so a restart regenerates identically-signed
// packages. None of it may live in the untrusted data dir — rolling
// the data dir back must NOT roll these back, or rollback detection
// would be self-defeating.
type hostState struct {
	SealRoot    string            `json:"seal_root"`
	TPMCounters map[uint32]uint64 `json:"tpm_counters"`
	DistroPEM   string            `json:"distro_key_pem"`
}

// openHost builds hostDeps. Without a data dir everything is
// in-memory and ephemeral.
func openHost(dataDir string, fsync bool, hostStatePath string, log *slog.Logger) (hostDeps, error) {
	if dataDir == "" {
		distro, err := keys.Generate("alpine-distro")
		if err != nil {
			return hostDeps{}, err
		}
		platform, err := enclave.NewPlatform(keys.Shared.MustGet("tsrd-quoting"))
		if err != nil {
			return hostDeps{}, err
		}
		return hostDeps{
			store:    tsr.NewMemStore(),
			tpm:      tpm.New(keys.Shared.MustGet("tsrd-tpm-ak")),
			platform: platform,
			distro:   distro,
		}, nil
	}
	if hostStatePath == "" {
		hostStatePath = dataDir + ".hoststate"
	}
	hs, err := loadOrInitHostState(hostStatePath)
	if err != nil {
		return hostDeps{}, err
	}
	var sealRoot [32]byte
	rootBytes, err := hex.DecodeString(hs.SealRoot)
	if err != nil || len(rootBytes) != 32 {
		return hostDeps{}, fmt.Errorf("host state %s: bad seal_root", hostStatePath)
	}
	copy(sealRoot[:], rootBytes)
	platform := enclave.NewPlatformWithSealRoot(keys.Shared.MustGet("tsrd-quoting"), sealRoot)
	distro, err := keys.ParsePrivatePEM("alpine-distro", []byte(hs.DistroPEM))
	if err != nil {
		return hostDeps{}, fmt.Errorf("host state %s: %w", hostStatePath, err)
	}
	hostTPM := tpm.New(keys.Shared.MustGet("tsrd-tpm-ak"))
	hostTPM.RestoreCounters(hs.TPMCounters)
	// Persist the NV bank on every counter bump, like hardware would.
	var saveMu sync.Mutex
	hostTPM.OnIncrement = func(uint32, uint64) {
		saveMu.Lock()
		defer saveMu.Unlock()
		hs.TPMCounters = hostTPM.Counters()
		if err := saveHostState(hostStatePath, hs); err != nil {
			log.Error("persisting host state failed", "path", hostStatePath, "err", err)
		}
	}
	st, err := store.OpenFS(dataDir, store.FSOptions{Fsync: fsync})
	if err != nil {
		return hostDeps{}, err
	}
	kept, dropped := st.ScrubReport()
	log.Info("data dir opened", "path", dataDir, "entries_kept", kept, "dropped_by_scrub", dropped)
	return hostDeps{store: st, tpm: hostTPM, platform: platform, distro: distro, persist: true}, nil
}

// loadOrInitHostState reads the host-state file, creating it (fresh
// seal root, zero counters, fresh distro key) on first boot.
func loadOrInitHostState(path string) (*hostState, error) {
	raw, err := os.ReadFile(path)
	if err == nil {
		hs := &hostState{}
		if err := json.Unmarshal(raw, hs); err != nil {
			return nil, fmt.Errorf("host state %s: %w", path, err)
		}
		return hs, nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	var root [32]byte
	if _, err := rand.Read(root[:]); err != nil {
		return nil, err
	}
	distro, err := keys.Generate("alpine-distro")
	if err != nil {
		return nil, err
	}
	pem, err := distro.MarshalPrivatePEM()
	if err != nil {
		return nil, err
	}
	hs := &hostState{
		SealRoot:    hex.EncodeToString(root[:]),
		TPMCounters: map[uint32]uint64{},
		DistroPEM:   string(pem),
	}
	if err := saveHostState(path, hs); err != nil {
		return nil, err
	}
	return hs, nil
}

// saveHostState writes the file atomically (temp + rename).
func saveHostState(path string, hs *hostState) error {
	raw, err := json.MarshalIndent(hs, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// svcLimits groups the concurrency knobs a service is built with: the
// per-repository batch cap and the global scheduler bounds.
type svcLimits struct {
	workers        int // per-repo refresh batch cap
	refreshWorkers int // global worker pool (0 = unbounded)
	schedMaxActive int // max concurrently admitted cycles (0 = unbounded)
}

// buildService generates the synthetic deployment (repository, mirrors,
// TSR service) on the given host and returns the service plus a
// ready-to-use policy text.
func buildService(scale float64, seed int64, lim svcLimits, deps hostDeps, log *slog.Logger) (*tsr.Service, string, error) {
	log.Info("generating synthetic repository", "scale", scale)
	origin := repo.New("alpine", deps.distro)
	gen := workload.New(workload.Config{Seed: seed, Scale: scale})
	for _, spec := range gen.Specs() {
		p, err := gen.Build(spec)
		if err != nil {
			return nil, "", err
		}
		if err := apk.Sign(p, deps.distro); err != nil {
			return nil, "", err
		}
		if err := origin.Publish(p); err != nil {
			return nil, "", err
		}
	}
	log.Info("published synthetic packages", "count", len(gen.Specs()))

	mirrors := map[string]*mirror.Mirror{}
	for i, c := range []netsim.Continent{netsim.Europe, netsim.Europe, netsim.NorthAmerica} {
		host := fmt.Sprintf("https://mirror%d/", i)
		m := mirror.New(host, c)
		m.Sync(origin)
		mirrors[host] = m
	}

	svc, err := tsr.New(tsr.Config{
		Platform:       deps.platform,
		TPM:            deps.tpm,
		Clock:          netsim.RealClock{},
		Link:           netsim.DefaultLinkModel(netsim.NewRNG(seed)),
		Local:          netsim.Europe,
		Store:          deps.store,
		AutoPersist:    deps.persist,
		EPC:            enclave.DefaultCostModel(),
		Workers:        lim.workers,
		RefreshWorkers: lim.refreshWorkers,
		SchedMaxActive: lim.schedMaxActive,
		Resolve: func(m policy.Mirror) (quorum.Source, tsr.PackageFetcher, error) {
			mm, ok := mirrors[m.Hostname]
			if !ok {
				return nil, nil, fmt.Errorf("unknown mirror %q (tsrd serves %d simulated mirrors: https://mirror0..2/)", m.Hostname, len(mirrors))
			}
			return mm, mm, nil
		},
	})
	if err != nil {
		return nil, "", err
	}

	// A ready-to-use policy for the simulated mirrors.
	pem, err := deps.distro.Public().MarshalPEM()
	if err != nil {
		return nil, "", err
	}
	example := policy.Policy{
		Mirrors: []policy.Mirror{
			{Hostname: "https://mirror0/", Location: "Europe"},
			{Hostname: "https://mirror1/", Location: "Europe"},
			{Hostname: "https://mirror2/", Location: "North America"},
		},
		SignerKeys: []string{string(pem)},
	}
	return svc, string(example.Marshal()), nil
}
