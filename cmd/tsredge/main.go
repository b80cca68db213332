// Command tsredge runs an untrusted edge replica in front of a TSR
// origin (cmd/tsrd). The replica needs no enclave and no keys: it
// syncs the origin's published snapshot — a full signed index on first
// contact, then deltas keyed by the index ETag — keeps a byte-budgeted
// pull-through package cache, and re-exposes the origin's signature
// headers verbatim so clients verify end-to-end. Any number of
// tsredge instances can fan out one origin's traffic; a stale or
// tampering instance is detected and routed around client-side.
//
// Usage:
//
//	tsredge -origin http://localhost:8473 -repo <id> [-addr :8474]
//	        [-sync 30s] [-cache-mb 256] [-name edge-1]
//	        [-data-dir /var/lib/tsredge] [-fsync] [-max-inflight 512]
//	        [-log-format text|json] [-debug-addr <addr>]
//
// Like the origin, the edge wraps its handler in the observability
// middleware: GET /metrics serves per-endpoint latency histograms, the
// in-flight gauge, and shed counts, and -max-inflight sheds flash
// crowd overload with 429 + Retry-After. Concurrent cold misses for
// the same package are coalesced into a single origin pull, and sync
// storms into a single delta fetch, so the edge protects the origin
// exactly when demand is most correlated.
//
// With -data-dir the package cache and the last-synced signed index
// live on disk: a restarted tsredge serves immediately from the
// persisted state and resumes DELTA sync instead of re-downloading the
// full index. Everything read back from disk is re-verified (content
// hash against the signed index) before it is served, so the data dir
// needs no trust.
//
// A client session (identical to the origin's read API):
//
//	curl localhost:8474/repos/<id>/index
//	curl -O localhost:8474/repos/<id>/packages/<name>
//	curl localhost:8474/repos/<id>/stats
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"strings"
	"time"

	"tsr/internal/daemon"
	"tsr/internal/edge"
	"tsr/internal/obs"
	"tsr/internal/store"
	"tsr/internal/trace"
	"tsr/internal/tsr"
)

func main() { daemon.Main("tsredge", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tsredge", flag.ContinueOnError)
	addr := fs.String("addr", ":8474", "listen address")
	originURL := fs.String("origin", "http://localhost:8473", "TSR origin base URL")
	repoID := fs.String("repo", "", "tenant repository id to replicate (required)")
	syncEvery := fs.Duration("sync", 30*time.Second, "origin sync interval ±10% jitter (delta syncs once warm)")
	cacheMB := fs.Int64("cache-mb", 256, "pull-through package cache budget in MiB (0 = unbounded)")
	name := fs.String("name", "", "edge name reported in X-Tsr-Edge (default: the listen address)")
	dataDir := fs.String("data-dir", "", "persist the package cache and last-synced index here; restarts resume warm via delta sync")
	fsyncF := fs.Bool("fsync", false, "fsync every data-dir store write (with -data-dir)")
	maxInflight := fs.Int64("max-inflight", 512, "admission control: max concurrently served requests, excess sheds with 429 (0 = unlimited)")
	logFormat := fs.String("log-format", "text", "operational log format: text or json (json lines carry trace_id/span_id for joining against /debug/traces)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (empty disables; keep it off the public listen address)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := obs.NewLogger(os.Stderr, *logFormat, "tsredge")
	if err != nil {
		return err
	}
	if *repoID == "" {
		return errors.New("-repo is required (the tenant repository id printed by policy deployment)")
	}
	if *name == "" {
		*name = "tsredge" + *addr
	}

	origin := &tsr.Client{
		BaseURL: strings.TrimRight(*originURL, "/"),
		RepoID:  *repoID,
		// A bounded client: a black-holed origin connection must fail
		// the sync (retried next tick) instead of wedging the loop
		// forever behind an absent timeout. The shutdown context
		// additionally aborts in-flight requests on SIGINT/SIGTERM.
		HTTPClient: &http.Client{Timeout: 2 * time.Minute},
		Context:    ctx,
	}
	rep := &edge.Replica{RepoID: *repoID, Origin: origin, Cache: store.NewMemBudget(*cacheMB << 20)}
	if *dataDir != "" {
		st, err := store.OpenFS(*dataDir, store.FSOptions{Budget: *cacheMB << 20, Fsync: *fsyncF})
		if err != nil {
			return err
		}
		kept, dropped := st.ScrubReport()
		log.Info("data dir opened", "path", *dataDir, "entries_kept", kept, "dropped_by_scrub", dropped)
		rep.Cache = st
		rep.PersistIndex = true
		switch err := rep.LoadState(); {
		case err == nil:
			log.Info("warm restart: serving persisted index, resuming delta sync", "etag", rep.ETag())
		case errors.Is(err, edge.ErrNoState):
			log.Info("no persisted index; starting cold")
		default:
			log.Warn("persisted index unusable; starting cold", "err", err)
		}
	}
	tracer := trace.NewTracer(trace.Config{Tier: "edge"})
	tctx := trace.NewContext(ctx, tracer)
	if err := rep.SyncCtx(tctx); err != nil {
		// The origin may be unreachable or not refreshed yet: serve
		// 503s (or the persisted snapshot) and let the sync loop catch
		// up rather than flapping.
		log.Warn("initial sync failed; retrying on the sync interval", "err", err, "every", *syncEvery)
	} else {
		log.Info("synced from origin", "repo", *repoID, "origin", *originURL, "etag", rep.ETag())
	}
	// The loop context is traced, so periodic syncs land in
	// /debug/traces as edge.sync trees like POST /sync ones do.
	go daemon.SyncLoop(tctx, rep, *syncEvery, log)
	if *debugAddr != "" {
		go daemon.ServePprof(ctx, *debugAddr, log)
	}
	log.Info("serving", "repo", *repoID, "addr", *addr, "cache_budget_mib", *cacheMB,
		"sync_every", *syncEvery, "max_inflight", *maxInflight, "metrics", "/metrics", "traces", "/debug/traces")
	return daemon.Serve(ctx, *addr, edge.Handler(map[string]*edge.Replica{*repoID: rep}, *name),
		obs.Options{MaxInflight: *maxInflight, Tracer: tracer}, log)
}
