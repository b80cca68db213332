package experiments

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"tsr/internal/edge"
	"tsr/internal/keys"
	"tsr/internal/store"
	"tsr/internal/trace"
)

// TestFleetSoak runs the full composed-failure soak at test scale and
// asserts the PR's acceptance criteria: zero invariant violations
// across at least five composed failure events, full convergence at
// quiesce, and a BENCH document with nonzero latency quantiles.
func TestFleetSoak(t *testing.T) {
	cfg := testCfg()
	cfg.Seed = 3
	res, err := FleetSoakRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations: %v", res.InvariantViolations, res.Violations)
	}
	if res.ComposedFailures < 5 {
		t.Fatalf("only %d composed failure events, want >= 5", res.ComposedFailures)
	}
	if res.LaggingAtQuiesce != 0 {
		t.Fatalf("%d clients lagging at quiesce", res.LaggingAtQuiesce)
	}
	if res.IndexReads == 0 || res.PackageReads == 0 {
		t.Fatalf("no successful reads: %d index / %d package", res.IndexReads, res.PackageReads)
	}
	if res.IndexLatency.P50Ms <= 0 || res.IndexLatency.P99Ms <= 0 {
		t.Fatalf("index latency quantiles not populated: %+v", res.IndexLatency)
	}
	if res.PackageLatency.P50Ms <= 0 || res.PackageLatency.P99Ms <= 0 {
		t.Fatalf("package latency quantiles not populated: %+v", res.PackageLatency)
	}
	if !res.OriginWarmRestart {
		t.Fatal("origin restart did not come back warm")
	}
	if res.CrowdShed == 0 {
		t.Fatal("flash crowds at 2x max-inflight shed nothing")
	}
	if res.InvariantChecks == 0 {
		t.Fatal("invariant checker saw no reads")
	}
	if res.QuiesceDiffPulls < int64(res.Edges) {
		t.Fatalf("%d chunked differential pulls at quiesce across %d replicas, want at least one each", res.QuiesceDiffPulls, res.Edges)
	}

	// The BENCH document round-trips and carries the violation count.
	dir := t.TempDir()
	path, err := res.WriteBench(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH document is not valid JSON: %v", err)
	}
	if v, ok := doc["invariant_violations"].(float64); !ok || v != 0 {
		t.Fatalf("BENCH invariant_violations = %v, want 0", doc["invariant_violations"])
	}
	if _, ok := doc["index_latency"].(map[string]any); !ok {
		t.Fatalf("BENCH missing index_latency: %s", data)
	}
}

// TestFleetSoakTableAndBenchEmission exercises the registered runner:
// the table renders and the BENCH file lands in Config.BenchDir.
func TestFleetSoakTableAndBenchEmission(t *testing.T) {
	cfg := testCfg()
	cfg.Seed = 3
	cfg.BenchDir = t.TempDir()
	tbl, err := FleetSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	if len(out) == 0 {
		t.Fatal("empty table")
	}
	if _, err := os.Stat(cfg.BenchDir + "/BENCH_fleet_soak.json"); err != nil {
		t.Fatalf("BENCH file not emitted: %v", err)
	}
}

// TestSoakSlotTraceReachesOrigin builds the soak's origin gate, one
// replica and its edge slot, without running the soak, and fetches a
// cold package through the slot under a tracer. The replica's pull
// crosses the gate to the origin, so the trace must hold both the
// edge.package span and the origin.package span it caused, under one
// trace ID: a wrapper that dropped the context would end the trace at
// the edge.
func TestSoakSlotTraceReachesOrigin(t *testing.T) {
	w, err := NewWorld(testCfg(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	gate := &originGate{}
	gate.tenant.Store(w.Tenant)
	slot := &edgeSlot{name: "edge-0", cache: store.NewMemBudget(1 << 30)}
	rep := &edge.Replica{
		RepoID:    w.Tenant.ID,
		Origin:    gate,
		TrustRing: keys.NewRing(w.Tenant.PublicKey()),
		Cache:     slot.cache,
	}
	if err := rep.SyncCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	slot.rep.Store(rep)
	signed, _, err := slot.FetchIndexTaggedCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	name, err := firstPackageName(signed)
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.NewTracer(trace.Config{Tier: "edge", HeadEvery: 1})
	if _, err := slot.FetchPackageCtx(trace.NewContext(context.Background(), tr), name); err != nil {
		t.Fatal(err)
	}
	if s := rep.Stats(); s.OriginPackages != 1 {
		t.Fatalf("origin packages = %d, want 1 (the fetch must be a cold pull-through)", s.OriginPackages)
	}
	sums := tr.Store().List()
	if len(sums) != 1 {
		t.Fatalf("kept %d traces, want 1", len(sums))
	}
	td, ok := tr.Store().Get(sums[0].TraceID)
	if !ok {
		t.Fatalf("trace %s listed but not retrievable", sums[0].TraceID)
	}
	seen := map[string]bool{}
	for _, s := range td.Spans {
		if s.TraceID != td.TraceID {
			t.Fatalf("span %s carries trace ID %s, want %s", s.Name, s.TraceID, td.TraceID)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{"edge.package", "origin.package"} {
		if !seen[want] {
			t.Fatalf("trace lacks the %s span: %+v", want, td.Spans)
		}
	}
}
