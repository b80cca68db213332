package analysis_test

import (
	"testing"

	"tsr/internal/analysis"
	"tsr/internal/analysis/analysistest"
)

// Each analyzer runs over a testdata package loaded under an import
// path that activates its Applies scoping; expectations live in the
// testdata as // want comments.

func TestNoresign(t *testing.T) {
	analysistest.Run(t, analysis.Noresign, "testdata/src/noresign", "tsr/internal/edge")
}

func TestStatusroute(t *testing.T) {
	analysistest.Run(t, analysis.Statusroute, "testdata/src/statusroute", "tsr/cmd/statusroutesim")
}

// TestStatusrouteDaemon holds the shard router, which lives in
// internal/daemon, to the same convention as the cmd packages.
func TestStatusrouteDaemon(t *testing.T) {
	analysistest.Run(t, analysis.Statusroute, "testdata/src/statusroutedaemon", "tsr/internal/daemon")
}

func TestSnapfreeze(t *testing.T) {
	analysistest.Run(t, analysis.Snapfreeze, "testdata/src/snapfreeze", "tsr/internal/tsr")
}

func TestServenolock(t *testing.T) {
	analysistest.Run(t, analysis.Servenolock, "testdata/src/servenolock", "tsr/internal/tsr")
}

// TestDetrandScoped runs detrand on a deterministic package path,
// where the full rule set (wall clock, global source, map-ordered
// output) applies.
func TestDetrandScoped(t *testing.T) {
	analysistest.Run(t, analysis.Detrand, "testdata/src/detrand", "tsr/internal/chaos")
}

// TestDetrandUnscoped runs detrand on an ordinary package path, where
// only the everywhere rule — no time-seeded RNGs — applies.
func TestDetrandUnscoped(t *testing.T) {
	analysistest.Run(t, analysis.Detrand, "testdata/src/detrandglobal", "tsr/internal/origin")
}

func TestCtxhttp(t *testing.T) {
	analysistest.Run(t, analysis.Ctxhttp, "testdata/src/ctxhttp", "tsr/internal/fetcher")
}

func TestSpanend(t *testing.T) {
	analysistest.Run(t, analysis.Spanend, "testdata/src/spanend", "tsr/internal/edge")
}

func TestStreamserve(t *testing.T) {
	analysistest.Run(t, analysis.Streamserve, "testdata/src/streamserve", "tsr/internal/tsr")
}

func TestBlobview(t *testing.T) {
	analysistest.Run(t, analysis.Blobview, "testdata/src/blobview", "tsr/internal/edge")
}

// TestDeadexport loads an internal package, its tests and a main
// package that imports it as one module.
func TestDeadexport(t *testing.T) {
	analysistest.RunModule(t, analysis.Deadexport,
		[]string{"testdata/src/deadexport/lib", "testdata/src/deadexport/cmd"},
		[]string{"tsr/internal/deadexport", "tsr/cmd/deadexport"})
}

func TestRegistryByName(t *testing.T) {
	all, ok := analysis.ByName(nil)
	if !ok || len(all) != 10 {
		t.Fatalf("ByName(nil) = %d analyzers, ok=%v; want all 10", len(all), ok)
	}
	subset, ok := analysis.ByName([]string{"detrand", "noresign"})
	if !ok || len(subset) != 2 || subset[0].Name != "detrand" || subset[1].Name != "noresign" {
		t.Fatalf("ByName(detrand,noresign) = %v, ok=%v", subset, ok)
	}
	if _, ok := analysis.ByName([]string{"nosuch"}); ok {
		t.Fatal("ByName(nosuch) succeeded; want failure")
	}
}
