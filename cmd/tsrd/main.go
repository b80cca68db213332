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
// restart — the CPU's fused sealing root (plus, simulation bootstrap,
// the synthetic distro signing key) — and the TPM's NV counter bank
// lives beside it in <host-state>.nv, written durably before each
// counter value is used. The file defaults to <data-dir>.hoststate,
// deliberately OUTSIDE the data dir: the §5.5 adversary can snapshot
// and roll back the disk cache but cannot roll back hardware. Restart with the same -scale/-seed so
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

	"tsr/internal/daemon"
	"tsr/internal/durable"
	"tsr/internal/enclave"
	"tsr/internal/keys"
	"tsr/internal/netsim"
	"tsr/internal/obs"
	"tsr/internal/store"
	"tsr/internal/testbed"
	"tsr/internal/tpm"
	"tsr/internal/trace"
	"tsr/internal/tsr"
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
	fsyncF := fs.Bool("fsync", false, "fsync every data-dir store write (with -data-dir); the host-state file and the TPM's NV bank are always written durably")
	hostStatePath := fs.String("host-state", "", "trusted host hardware state (seal root; TPM counters in <host-state>.nv); default <data-dir>.hoststate, keep OUTSIDE -data-dir")
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
	if deps.host.AutoPersist {
		restored, err := svc.RestoreAll()
		if err != nil {
			return fmt.Errorf("restoring %s: %w", *dataDir, err)
		}
		for _, r := range restored {
			switch {
			case r.Warm:
				log.Info("restored repository warm (serving previous signed index, no re-sanitization)", "repo", r.ID)
			case r.RolledBack():
				log.Error("checkpoint REFUSED, older than the TPM counter — a rolled-back data dir, or a crash mid-checkpoint; repository is cold until the next refresh", "repo", r.ID, "err", r.Err)
			case r.CounterBehind():
				log.Error("checkpoint is AHEAD of the TPM counter — the counter bank (<host-state>.nv) was lost or reset, e.g. a host-state file from before the bank existed; repository REFUSES to publish until the bank is restored and tsrd restarted", "repo", r.ID, "err", r.Err)
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
// profile (no -data-dir) leaves every one to the testbed's defaults;
// the durable profile reopens the data dir, the host-state file and
// the TPM's NV bank so sealed blobs unseal and the counters carry over
// — modeling the same physical machine rebooting.
type hostDeps struct {
	host   tsr.Config // store, TPM, platform and AutoPersist
	distro *keys.Pair // the synthetic upstream's signer; nil: the testbed's
}

// hostState is the JSON body of the -host-state file: the hardware
// that survives restarts. SealRoot is the CPU's fused sealing secret;
// DistroKeyPEM bootstraps the simulated upstream world so a restart
// regenerates identically-signed packages. The TPM's NV counter bank
// lives beside it, in <host-state>.nv. None of it may live in the
// untrusted data dir — rolling the data dir back must NOT roll these
// back, or rollback detection would be self-defeating.
type hostState struct {
	SealRoot  string `json:"seal_root"`
	DistroPEM string `json:"distro_key_pem"`
}

// openHost builds hostDeps. Without a data dir everything is
// in-memory and ephemeral.
func openHost(dataDir string, fsync bool, hostStatePath string, log *slog.Logger) (hostDeps, error) {
	if dataDir == "" {
		return hostDeps{}, nil
	}
	if hostStatePath == "" {
		hostStatePath = dataDir + ".hoststate"
	}
	hs, err := loadOrInitHostState(durable.OS, hostStatePath)
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
	hostTPM, err := tpm.Open(keys.Shared.MustGet("tsrd-tpm-ak"), hostStatePath+".nv")
	if err != nil {
		return hostDeps{}, err
	}
	st, err := store.OpenFS(dataDir, store.FSOptions{Fsync: fsync})
	if err != nil {
		return hostDeps{}, err
	}
	kept, dropped := st.ScrubReport()
	log.Info("data dir opened", "path", dataDir, "entries_kept", kept, "dropped_by_scrub", dropped)
	return hostDeps{
		host:   tsr.Config{Store: st, TPM: hostTPM, Platform: platform, AutoPersist: true},
		distro: distro,
	}, nil
}

// loadOrInitHostState reads the host-state file, creating it (fresh
// seal root, fresh distro key) on first boot. The first boot's file is
// written through fsys with durable.WriteFile, so the seal root and the
// distro key are on disk before anything is sealed or signed under
// them. Temporary files that a crashed first boot left beside the file
// are removed first.
func loadOrInitHostState(fsys durable.FS, path string) (*hostState, error) {
	durable.RemoveTemps(fsys, path)
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
	hs := &hostState{SealRoot: hex.EncodeToString(root[:]), DistroPEM: string(pem)}
	raw, err = json.MarshalIndent(hs, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := durable.WriteFile(fsys, path, raw); err != nil {
		return nil, err
	}
	return hs, nil
}

// svcLimits groups the concurrency knobs a service is built with: the
// per-repository batch cap and the global scheduler bounds.
type svcLimits struct {
	workers        int // per-repo refresh batch cap
	refreshWorkers int // global worker pool (0 = unbounded)
	schedMaxActive int // max concurrently admitted cycles (0 = unbounded)
}

// buildService generates the synthetic deployment (repository, mirrors,
// TSR service on a real clock) on the given host and returns the
// service plus a ready-to-use policy text.
func buildService(scale float64, seed int64, lim svcLimits, deps hostDeps, log *slog.Logger) (*tsr.Service, string, error) {
	log.Info("generating synthetic repository", "scale", scale)
	host := deps.host
	host.Clock = netsim.RealClock{}
	host.Workers, host.RefreshWorkers, host.SchedMaxActive = lim.workers, lim.refreshWorkers, lim.schedMaxActive
	tb, err := testbed.New(testbed.Options{Scale: scale, Seed: seed, Distro: deps.distro, Host: host})
	if err != nil {
		return nil, "", err
	}
	log.Info("published synthetic repository", "mirrors", len(tb.Mirrors))
	return tb.Service, string(tb.Policy.Marshal()), nil
}
