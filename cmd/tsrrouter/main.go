// Command tsrrouter shards tenant repositories across a fleet of tsrd
// origins with a consistent-hash ring: every repository id hashes to
// one backend, its owner, which holds the tenant's caches, sealed
// checkpoints and signing key, and adding a backend re-homes only ~1/N
// of the tenants. The router itself is daemon.Router: single-homed, so
// while an owner is down its tenants answer 502.
//
// Usage:
//
//	tsrrouter -backends http://tsrd0:8473,http://tsrd1:8473
//	          [-addr :8474] [-replicas 128]
//	          [-max-inflight 256] [-log-format text|json]
package main

import (
	"context"
	"flag"
	"os"
	"strings"

	"tsr/internal/daemon"
	"tsr/internal/obs"
	"tsr/internal/trace"
)

func main() { daemon.Main("tsrrouter", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tsrrouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8474", "listen address")
	backends := fs.String("backends", "", "comma-separated tsrd base URLs (required)")
	replicas := fs.Int("replicas", 0, "virtual replicas per backend on the hash ring (0 = default)")
	maxInflight := fs.Int64("max-inflight", 256, "admission control: max concurrently served requests (0 = unlimited)")
	logFormat := fs.String("log-format", "text", "operational log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := obs.NewLogger(os.Stderr, *logFormat, "tsrrouter")
	if err != nil {
		return err
	}
	rt, err := daemon.NewRouter(strings.Split(*backends, ","), *replicas, log)
	if err != nil {
		return err
	}
	tracer := trace.NewTracer(trace.Config{Tier: "router"})
	log.Info("listening", "addr", *addr, "backends", len(rt.Nodes()), "max_inflight", *maxInflight)
	return daemon.Serve(ctx, *addr, rt.Handler(), obs.Options{MaxInflight: *maxInflight, Tracer: tracer}, log)
}
