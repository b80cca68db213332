// Package statusroute exercises the statusroute analyzer. The harness
// loads it under a tsr/cmd/... import path, so every handler here is
// held to the error-routing convention: no http.Error, no direct
// error-status WriteHeader — everything goes through httpError.
package statusroute

import (
	"errors"
	"net/http"
)

func statusFor(err error) int {
	_ = err
	return http.StatusInternalServerError
}

// httpError is the designated helper: a computed status inside it is
// the one permitted WriteHeader-with-a-variable site.
func httpError(w http.ResponseWriter, status int, err error) {
	w.WriteHeader(status)
	_, _ = w.Write([]byte(err.Error()))
}

// HTTPError is the same helper under its exported name (tsr.HTTPError,
// which the edge tier calls).
func HTTPError(w http.ResponseWriter, status int, err error) {
	w.WriteHeader(status)
}

func badError(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "upstream down", http.StatusBadGateway) // want `http\.Error bypasses`
}

func badConstStatus(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusNotFound) // want `WriteHeader\(404\) writes an error status directly`
}

func badComputedStatus(w http.ResponseWriter, r *http.Request) {
	err := errors.New("boom")
	w.WriteHeader(statusFor(err)) // want `computed status outside the httpError helper`
}

// Success statuses are not error routing: both are fine.
func okSuccess(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusNoContent)
}

func okNotModified(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(304)
}

func okRouted(w http.ResponseWriter, r *http.Request) {
	err := errors.New("upstream down")
	httpError(w, statusFor(err), err)
}
