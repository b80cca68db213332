// Package statusroutedaemon exercises the statusroute analyzer on the
// shard router's shapes. The harness loads it as tsr/internal/daemon,
// where the router lives: proxy failures route through tsr.HTTPError,
// and relaying a backend's own status needs a documented allow.
package statusroutedaemon

import (
	"errors"
	"io"
	"net/http"

	"tsr/internal/tsr"
)

func proxyFailed(w http.ResponseWriter, r *http.Request, err error) {
	tsr.HTTPError(w, http.StatusBadGateway, err)
}

func proxyFailedAdHoc(w http.ResponseWriter, r *http.Request, err error) {
	http.Error(w, err.Error(), http.StatusBadGateway) // want `http\.Error bypasses`
}

func ownerDown(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusBadGateway) // want `WriteHeader\(502\) writes an error status directly`
}

func relay(w http.ResponseWriter, resp *http.Response) {
	w.WriteHeader(resp.StatusCode) // want `computed status outside the httpError helper`
	io.Copy(w, resp.Body)
}

func relayAllowed(w http.ResponseWriter, resp *http.Response) {
	//lint:allow statusroute relays the backend's own status verbatim
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func routed(w http.ResponseWriter, r *http.Request) {
	tsr.HTTPError(w, http.StatusInternalServerError, errors.New("no id"))
}
