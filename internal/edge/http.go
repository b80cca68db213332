package edge

import (
	"errors"
	"fmt"
	"net/http"

	"tsr/internal/index"
	"tsr/internal/tsr"
)

// Handler exposes replicas over the same read API as the origin —
// literally the same routes (tsr.RegisterReadRoutes) — so a tsr.Client
// (or any package manager) can be pointed at an edge interchangeably:
//
//	GET  /repos/{id}/index                 the origin-signed metadata index
//	GET  /repos/{id}/index/delta           delta from a retained generation (?since=<etag>)
//	GET  /repos/{id}/packages/{pkg}        a sanitized package (pull-through cache)
//	GET  /repos/{id}/packages/{pkg}/chunks the package's chunk manifest
//	GET  /repos/{id}/stats                 replica sync/cache counters
//	POST /repos/{id}/sync                  trigger a sync now
//	GET  /healthz                          liveness
//
// Every read response carries X-Tsr-Edge: <name>, so clients and
// operators can tell the tiers apart. Write/trust endpoints (POST
// /policies, /refresh) intentionally do not exist here: an edge cannot
// perform trusted operations.
func Handler(replicas map[string]*Replica, name string) http.Handler {
	mux := http.NewServeMux()
	find := func(id string) (*Replica, error) {
		rep, ok := replicas[id]
		if !ok {
			return nil, fmt.Errorf("edge: unknown repository %q", id)
		}
		return rep, nil
	}
	tsr.RegisterReadRoutes(mux, func(id string) (tsr.ReadView, error) { return find(id) }, statusFor, name)
	lookup := func(w http.ResponseWriter, r *http.Request) *Replica {
		rep, err := find(r.PathValue("id"))
		if err != nil {
			tsr.HTTPError(w, http.StatusNotFound, err)
		}
		return rep
	}
	mux.HandleFunc("GET /repos/{id}/stats", func(w http.ResponseWriter, r *http.Request) {
		rep := lookup(w, r)
		if rep == nil {
			return
		}
		tsr.WriteJSON(w, rep.Stats())
	})
	mux.HandleFunc("POST /repos/{id}/sync", func(w http.ResponseWriter, r *http.Request) {
		rep := lookup(w, r)
		if rep == nil {
			return
		}
		// statusFor, not a flat 502: a sync that fails because this
		// replica is offline, or its upstream edge has not synced yet
		// (chained edges), is a 503 availability condition — not an
		// upstream protocol error.
		if err := rep.SyncCtx(r.Context()); err != nil {
			tsr.HTTPError(w, statusFor(err), err)
			return
		}
		tsr.WriteJSON(w, rep.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		tsr.WriteJSON(w, map[string]string{"status": "ok", "role": "edge", "edge": name})
	})
	return mux
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotSynced):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrOffline):
		return http.StatusServiceUnavailable
	case errors.Is(err, index.ErrNotFound), errors.Is(err, index.ErrNoDelta):
		return http.StatusNotFound
	default:
		return http.StatusBadGateway // pull-through/origin failures
	}
}
