package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"tsr/internal/workload"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the registry in metrics.go")

// tinySizing keeps the smoke runs in seconds under -race: a few dozen
// small packages, one probe, short cycles.
var tinySizing = sizing{
	Real:        catalogSpec{Name: "catalog-real", Scale: 0.002, MaxBytes: 6 << 10, MaxFiles: 4},
	Wide:        catalogSpec{Name: "catalog-wide", Scale: 0.002, MaxBytes: 4 << 10, MaxFiles: 3, Filler: 16, Probes: 1, ProbeFiles: 3},
	RefreshBump: 2, CycleWarm: 2, CycleGens: 2,
	FleetProbes: 1, FleetFiller: 1,
	WarmupOps: 20,
}

func tinyOpts(t *testing.T) runOpts {
	return runOpts{
		seed: 7, window: 300 * time.Millisecond, setups: 1, clients: loadClients,
		sizing: tinySizing, outDir: t.TempDir(),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts a record carries exactly the defined metrics,
// each finite and validly named.
func checkMetrics(t *testing.T, rec *runRecord, defs []metricDef, positive bool) {
	t.Helper()
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d defined", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, def := range defs {
		m, ok := rec.Metrics[def.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", rec.Workload, def.Name)
		case !nameRE.MatchString(def.Name):
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", def.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", rec.Workload, def.Name, m.Value)
		case m.Unit != def.Unit:
			t.Errorf("%s: %s has unit %q, want %q", rec.Workload, def.Name, m.Unit, def.Unit)
		case positive && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", rec.Workload, def.Name, m.Value)
		}
	}
}

// TestSmokeEndToEnd runs every workload untraced at a tiny catalog:
// every end-to-end metric comes out of every workload, and nothing
// fails.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, wl := range workloads {
		rec, err := runEndToEnd(context.Background(), wl.Name, tinyOpts(t))
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !rec.Correct || rec.Failed != 0 {
			t.Errorf("%s: failed %d of %d: %v", wl.Name, rec.Failed, rec.Attempted, rec.Errors)
		}
		checkMetrics(t, rec, endToEnd, true)
	}
}

// TestSmokeTraced runs every workload traced: every per-layer metric
// comes out, the span file is written, and the seam decorators left the
// program's counters exactly where the untraced pass had them.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice plus the layer calls")
	}
	layerCalls, layerMinCalls = 2, 1
	for _, wl := range workloads {
		o := tinyOpts(t)
		rec, err := runTraced(context.Background(), wl.Name, o)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if !rec.Correct {
			t.Errorf("%s: failed %d of %d: %v", wl.Name, rec.Failed, rec.Attempted, rec.Errors)
		}
		checkMetrics(t, rec, perLayer, false)
		raw, err := os.ReadFile(o.outDir + "/" + wl.Name + ".trace.json")
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) == 0 {
			t.Errorf("%s: span file has %d spans (%v)", wl.Name, len(file.Spans), err)
		}
		if wl.Name == "refresh_cycle" {
			for _, s := range file.Spans {
				if strings.Contains(s.Name, "http") {
					t.Errorf("refresh_cycle issued an HTTP request: span %s", s.Name)
				}
			}
		}
	}
}

// tamperStore flips one byte of everything read back through it.
type tamperStore struct{ fullStore }

func (s tamperStore) Get(key string) ([]byte, error) {
	data, err := s.fullStore.Get(key)
	if err != nil || len(data) == 0 {
		return data, err
	}
	out := append([]byte(nil), data...)
	out[len(out)/2] ^= 0xFF
	return out, nil
}

func (s tamperStore) Open(key string) (io.ReadCloser, int64, error) {
	data, err := s.Get(key)
	return io.NopCloser(bytes.NewReader(data)), int64(len(data)), err
}

// TestTamperedBytesFailTheRun: a store that corrupts the edge cache is
// detected by the program's hash-as-you-copy serving, the client sees a
// broken body, and the run is reported incorrect (exit code 1).
func TestTamperedBytesFailTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	o := tinyOpts(t)
	o.seams.wrapStore = func(site string, s fullStore) fullStore {
		if site == "store.edge" {
			return tamperStore{s}
		}
		return s
	}
	rec, err := runEndToEnd(context.Background(), "package_fetch", o)
	if err == nil && rec.Correct {
		t.Fatalf("tampered edge cache went unnoticed: %d of %d failed", rec.Failed, rec.Attempted)
	}
}

// TestCatalogCapDropsTheTail: the size cap removes the Pareto-tail
// package (130 MB and up) whatever the shape seed, and what remains is
// still most of the population.
func TestCatalogCapDropsTheTail(t *testing.T) {
	for shape := int64(1); shape <= 3; shape++ {
		cat := catalogSpec{Scale: 0.02, MaxBytes: 8 << 20, MaxFiles: 3000}
		all := workload.New(workload.Config{Seed: shape, Scale: cat.Scale}).Specs()
		kept := realSpecs(cat, shape)
		var biggest int64
		for _, s := range kept {
			biggest = max(biggest, s.TotalSize)
		}
		if biggest > cat.MaxBytes {
			t.Errorf("shape seed %d: kept a %d-byte package over the %d cap", shape, biggest, cat.MaxBytes)
		}
		if len(kept) < len(all)*9/10 {
			t.Errorf("shape seed %d: cap kept %d of %d specs", shape, len(kept), len(all))
		}
	}
	// Seed 1 is the one the issue measured: one 144 MB draw at scale 0.02.
	all := workload.New(workload.Config{Seed: 1, Scale: 0.02}).Specs()
	tail := 0
	for _, s := range all {
		if s.TotalSize > 100<<20 {
			tail++
		}
	}
	if tail == 0 {
		t.Error("seed 1 / scale 0.02 no longer draws a Pareto-tail package; the cap test is vacuous")
	}
}

// TestRegistry: names are unique and well-formed, every "should move"
// target names an existing end-to-end metric and workload, and
// BENCHMARK.json says what the registry says.
func TestRegistry(t *testing.T) {
	e2e := make(map[string]bool)
	seen := make(map[string]bool)
	for _, def := range endToEnd {
		e2e[def.Name] = true
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	wls := make(map[string]bool)
	for _, wl := range workloads {
		wls[wl.Name] = true
		if workloadFuncs[wl.Name] == nil {
			t.Errorf("workload %s has no implementation", wl.Name)
		}
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[def.Name] || !nameRE.MatchString(def.Name) {
			t.Errorf("metric name %q is duplicated or malformed", def.Name)
		}
		seen[def.Name] = true
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("%s: better = %q", def.Name, def.Better)
		}
		for _, target := range def.Moves {
			metric, wl, ok := strings.Cut(target, "@")
			if !ok || !e2e[metric] || !wls[wl] {
				t.Errorf("%s should move %q, which is not an end-to-end metric @ workload", def.Name, target)
			}
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}

	want := benchmarkJSON()
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; run go test ./bench -run TestRegistry -update")
	}
}

// benchmarkJSON renders the contract file from the registry.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: 20}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n')
}

// TestCompareVerdicts pins -compare's three verdicts.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5}
	if _, v := verdict(lower, steady, []float64{104, 105, 103, 104, 104}); v != "ok" {
		t.Errorf("+4%% within a 10%% bound: %s", v)
	}
	if _, v := verdict(lower, steady, []float64{115, 116, 114, 115, 115}); v != "worse" {
		t.Errorf("+15%% over a 10%% bound: %s", v)
	}
	if _, v := verdict(lower, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 118, 95, 108}); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	higher := metricDef{Better: "higher", Bound: 0.10}
	if _, v := verdict(higher, steady, []float64{85, 86, 84, 85, 85}); v != "worse" {
		t.Errorf("-15%% throughput over a 10%% bound: %s", v)
	}
	// Python's statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
