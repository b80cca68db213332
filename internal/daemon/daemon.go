// Package daemon is the scaffold the three long-running binaries
// (cmd/tsrd, cmd/tsredge, cmd/tsrrouter) share: the signal/exit
// wrapper, the one drain-on-shutdown server loop, the pprof listener,
// the background loops that keep an origin's tenants and an edge's
// replica fresh, and the shard router. The main packages parse flags,
// build their handler, and call in here, so tests, experiments and
// benchmarks can run the code the binaries run.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tsr/internal/obs"
)

// Main runs a daemon under a context that SIGINT and SIGTERM cancel,
// passing it the command-line arguments. A failing run prints
// "name: err" to stderr and exits 1.
func Main(name string, run func(ctx context.Context, args []string) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// Serve wraps h in the observability middleware opts configures
// (latency histograms, /metrics, admission control, tracing) and serves
// it on addr until it fails or ctx is canceled, then drains in-flight
// requests through http.Server.Shutdown with a deadline. A canceled
// context is a clean stop: Serve returns nil.
func Serve(ctx context.Context, addr string, h http.Handler, opts obs.Options, log *slog.Logger) error {
	return serve(ctx, newServer(addr, obs.New(opts).Wrap(h)), log)
}

// ServePprof exposes the net/http/pprof handlers on their own listen
// address, so profiling never rides the public API (and never competes
// with admission control). It returns when ctx is canceled.
func ServePprof(ctx context.Context, addr string, log *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Info("pprof listening", "addr", addr)
	if err := serve(ctx, newServer(addr, mux), log); err != nil {
		log.Error("pprof server failed", "err", err)
	}
}

func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
}

// serve is the one drain-on-shutdown loop.
func serve(ctx context.Context, server *http.Server, log *slog.Logger) error {
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	log.Info("signal received, draining connections", "addr", server.Addr)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Info("stopped", "addr", server.Addr)
	return nil
}
