// Package tsrbench hosts the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (driving the experiment harness
// at a reduced scale), one per DESIGN.md ablation, plus micro-benchmarks
// of the core operations (sanitization, package codec, signatures,
// quorum reads).
//
// Regenerate the paper-shaped tables at higher scale with:
//
//	go run ./cmd/experiments -scale 1.0
package tsrbench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tsr/internal/apk"
	"tsr/internal/enclave"
	"tsr/internal/experiments"
	"tsr/internal/index"
	"tsr/internal/keys"
	"tsr/internal/sanitize"
	"tsr/internal/stats"
	"tsr/internal/trace"
	"tsr/internal/workload"
)

// benchScale keeps each experiment benchmark in the ~1s range.
const benchScale = 0.008

func benchCfg() experiments.Config {
	return experiments.Config{Scale: benchScale, Seed: 1, MaxPackages: 25, QuorumTrials: 3}
}

// runExperiment runs one registered experiment b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	runner, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper table/figure ------------------------------

func BenchmarkTable1ScriptCensus(b *testing.B)     { runExperiment(b, "table1") }
func BenchmarkTable2ScriptOperations(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3RepoInit(b *testing.B)         { runExperiment(b, "table3") }
func BenchmarkTable4Correlations(b *testing.B)     { runExperiment(b, "table4") }
func BenchmarkFig8SanitizationTime(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9SizeOverhead(b *testing.B)       { runExperiment(b, "fig9") }
func BenchmarkFig10CacheLatency(b *testing.B)      { runExperiment(b, "fig10") }
func BenchmarkFig11EndToEnd(b *testing.B)          { runExperiment(b, "fig11") }
func BenchmarkFig12SGXOverhead(b *testing.B)       { runExperiment(b, "fig12") }
func BenchmarkFig13QuorumLatency(b *testing.B)     { runExperiment(b, "fig13") }

// --- ablations ----------------------------------------------------------

func BenchmarkAblationEPCSize(b *testing.B) { runExperiment(b, "ablation-epc") }

func BenchmarkAblationQuorumStrategy(b *testing.B) { runExperiment(b, "ablation-quorum") }

func BenchmarkAblationParallelDownload(b *testing.B) {
	runner, err := experiments.ByID("ablation-parallel")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	cfg.Scale = 0.004
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRefreshWorkers(b *testing.B) {
	runner, err := experiments.ByID("ablation-workers")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	cfg.Scale = 0.004
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSoak runs the composed-failure soak (docs/SOAK.md) at
// bench scale: diurnal client traffic through failover clients while
// edges die, restart, roll back, and turn byzantine, the origin
// crash-restarts from its data dir, and flash crowds hit the admission
// gate. Any invariant violation fails the benchmark. Reported metrics:
// read p99s, shed rate, composed failure count, and the origin's warm
// restart time.
func BenchmarkFleetSoak(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.004
	// Seed 3 like the CI soak-smoke job: seed 1 draws a workload with a
	// multi-megabyte tail package that turns the soak's package reads
	// into a 100s bench iteration without exercising anything extra.
	cfg.Seed = 3
	for i := 0; i < b.N; i++ {
		res, err := experiments.FleetSoakRun(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.InvariantViolations != 0 {
			b.Fatalf("%d invariant violations: %v", res.InvariantViolations, res.Violations)
		}
		if res.ComposedFailures < 5 {
			b.Fatalf("only %d composed failures scheduled, want >= 5", res.ComposedFailures)
		}
		b.ReportMetric(res.IndexLatency.P99Ms, "idx-p99-ms")
		b.ReportMetric(res.PackageLatency.P99Ms, "pkg-p99-ms")
		b.ReportMetric(res.ShedRate*100, "%shed")
		b.ReportMetric(float64(res.ComposedFailures), "failures")
		b.ReportMetric(res.WarmRestartMs, "warm-restart-ms")
	}
}

// --- refresh pipeline ----------------------------------------------------

// refreshWorld builds one simulated deployment shared by the refresh
// benchmarks (the initial tenant is refreshed during construction).
func refreshWorld(b *testing.B, scale float64) *experiments.World {
	b.Helper()
	w, err := experiments.NewWorld(experiments.Config{Scale: scale, Seed: 1}, nil, false)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkRefreshParallel measures a cold repository refresh (download
// + plan + sanitize + sign) at several pipeline widths. Each iteration
// deploys a fresh tenant (isolated caches) outside the timer, so the
// timed region is exactly one full refresh cycle.
func BenchmarkRefreshParallel(b *testing.B) {
	w := refreshWorld(b, 0.006)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				id, _, _, err := w.Service.DeployPolicy(w.PolicyRaw)
				if err != nil {
					b.Fatal(err)
				}
				tenant, err := w.Service.Repo(id)
				if err != nil {
					b.Fatal(err)
				}
				tenant.SetWorkers(workers)
				b.StartTimer()
				stats, err := tenant.Refresh()
				if err != nil {
					b.Fatal(err)
				}
				if stats.Sanitized == 0 {
					b.Fatal("cold refresh sanitized nothing")
				}
			}
		})
	}
}

// BenchmarkRefreshWarmCache measures a refresh over an unchanged
// upstream: every package is answered by the content-addressed
// sanitization cache and nothing is re-sanitized.
func BenchmarkRefreshWarmCache(b *testing.B) {
	w := refreshWorld(b, 0.006)
	w.Tenant.SetWorkers(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := w.Tenant.Refresh()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sanitized != 0 {
			b.Fatalf("warm refresh sanitized %d packages", stats.Sanitized)
		}
	}
}

// BenchmarkRefreshForcedReplan measures the forced-replan path: the
// plan is rebuilt from the script cache each iteration, but the
// unchanged plan hash turns the whole population into cache hits.
func BenchmarkRefreshForcedReplan(b *testing.B) {
	w := refreshWorld(b, 0.006)
	w.Tenant.SetWorkers(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Tenant.ForceReplan()
		stats, err := w.Tenant.Refresh()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Sanitized != 0 || stats.CacheHits == 0 {
			b.Fatalf("forced replan stats = %+v", stats)
		}
	}
}

// BenchmarkConcurrentReads measures read-tier latency while a cold
// refresh runs: each iteration publishes a plan-invalidating package
// (forcing a full re-sanitization cycle), starts the refresh in the
// background, and hammers FetchIndex/FetchPackage until it publishes.
// Reported metrics are the p50/p99 of the index reads issued during the
// refresh — served lock-free from the previous snapshot, they stay in
// the microsecond range while the pipeline grinds for seconds.
func BenchmarkConcurrentReads(b *testing.B) {
	w := refreshWorld(b, 0.004)
	w.Tenant.SetWorkers(4)
	signed, err := w.Tenant.FetchIndex()
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.Decode(signed.Raw)
	if err != nil {
		b.Fatal(err)
	}
	if len(ix.Entries) == 0 {
		b.Fatal("served index is empty")
	}
	probe := ix.Entries[0].Name
	// Hammer through the traced entry points at production sampling
	// defaults: the read-tier latency this benchmark reports is the
	// latency clients see with the span layer in the path.
	tctx := trace.NewContext(context.Background(), trace.NewTracer(trace.Config{Tier: "origin"}))

	var idxLat, pkgLat []float64 // milliseconds, during-refresh only
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh account name changes the sanitization plan hash, so
		// the refresh re-sanitizes the whole population.
		p := &apk.Package{
			Name: "bench-acct", Version: fmt.Sprintf("1.%d-r0", i),
			Files:   []apk.File{{Path: "/usr/bin/bench-acct", Mode: 0o755, Content: []byte("bench")}},
			Scripts: map[string]string{"post-install": fmt.Sprintf("adduser -S acct%d\n", i)},
		}
		if err := apk.Sign(p, w.Distro); err != nil {
			b.Fatal(err)
		}
		if err := w.Repo.Publish(p); err != nil {
			b.Fatal(err)
		}
		for _, m := range w.Mirrors {
			m.Sync(w.Repo)
		}
		b.StartTimer()
		done := make(chan error, 1)
		go func() {
			_, err := w.Tenant.RefreshCtx(tctx)
			done <- err
		}()
	sample:
		for {
			select {
			case err := <-done:
				if err != nil {
					b.Fatal(err)
				}
				break sample
			default:
			}
			t0 := time.Now()
			if _, _, err := w.Tenant.FetchIndexTaggedCtx(tctx); err != nil {
				b.Fatal(err)
			}
			idxLat = append(idxLat, float64(time.Since(t0))/float64(time.Millisecond))
			t0 = time.Now()
			if _, err := w.Tenant.FetchPackageCtx(tctx, probe); err != nil {
				b.Fatal(err)
			}
			pkgLat = append(pkgLat, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	b.StopTimer()
	if len(idxLat) > 0 {
		b.ReportMetric(stats.MustPercentile(idxLat, 50), "idx-p50-ms")
		b.ReportMetric(stats.MustPercentile(idxLat, 99), "idx-p99-ms")
	}
	if len(pkgLat) > 0 {
		b.ReportMetric(stats.MustPercentile(pkgLat, 50), "pkg-p50-ms")
		b.ReportMetric(stats.MustPercentile(pkgLat, 99), "pkg-p99-ms")
	}
}

// --- micro-benchmarks ----------------------------------------------------

// benchSanitizer builds a sanitizer and an encoded package of the given
// content size and file count.
func benchSanitizer(b *testing.B, files int, size int64) (*sanitize.Sanitizer, []byte) {
	b.Helper()
	signer := keys.Shared.MustGet("bench-distro")
	tsrKey := keys.Shared.MustGet("bench-tsr")
	p := &apk.Package{Name: "bench", Version: "1.0-r0"}
	per := size / int64(files)
	for i := 0; i < files; i++ {
		content := make([]byte, per)
		for j := range content {
			content[j] = byte(i * j)
		}
		p.Files = append(p.Files, apk.File{
			Path: fmt.Sprintf("/usr/lib/bench/f%04d", i), Mode: 0o644, Content: content,
		})
	}
	p.Scripts = map[string]string{"post-install": "addgroup -S bench\nadduser -S -G bench bench\n"}
	if err := apk.Sign(p, signer); err != nil {
		b.Fatal(err)
	}
	raw, err := apk.Encode(p)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sanitize.BuildPlan(&sanitize.SliceSource{Packages: []*apk.Package{p}}, nil, tsrKey)
	if err != nil {
		b.Fatal(err)
	}
	return &sanitize.Sanitizer{
		Plan:      plan,
		TrustRing: keys.NewRing(signer.Public()),
		SignKey:   tsrKey,
		EPC:       enclave.DefaultCostModel(),
	}, raw
}

func BenchmarkSanitizeSmallPackage(b *testing.B) {
	san, raw := benchSanitizer(b, 4, 32<<10)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := san.Sanitize(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSanitizeManyFiles(b *testing.B) {
	san, raw := benchSanitizer(b, 128, 256<<10)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := san.Sanitize(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSanitizeLargePackage(b *testing.B) {
	san, raw := benchSanitizer(b, 8, 8<<20)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := san.Sanitize(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackageEncodeDecode(b *testing.B) {
	gen := workload.New(workload.Config{Seed: 1, Scale: 0.002})
	p, err := gen.Build(gen.Specs()[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := apk.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := apk.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignFileDigest(b *testing.B) {
	signer := keys.Shared.MustGet("bench-distro")
	content := make([]byte, 64<<10)
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.Sign(content); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySignature(b *testing.B) {
	signer := keys.Shared.MustGet("bench-distro")
	content := make([]byte, 64<<10)
	sig, err := signer.Sign(content)
	if err != nil {
		b.Fatal(err)
	}
	pub := signer.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Verify(content, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnclaveSealUnseal(b *testing.B) {
	platform, err := enclave.NewPlatform(keys.Shared.MustGet("bench-quoting"))
	if err != nil {
		b.Fatal(err)
	}
	enc := platform.Launch(enclave.MeasureCode("bench"))
	data := make([]byte, 32<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := enc.Seal(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := enc.Unseal(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSanitizeThroughput reports packages/second over a scaled
// population, the figure behind Table 3's sanitization row.
func BenchmarkSanitizeThroughput(b *testing.B) {
	gen := workload.New(workload.Config{Seed: 1, Scale: 0.004})
	signer := keys.Shared.MustGet("bench-distro")
	tsrKey := keys.Shared.MustGet("bench-tsr")
	type item struct{ raw []byte }
	var items []item
	var pkgs []*apk.Package
	for _, spec := range gen.Specs() {
		if !spec.Category.SupportedByTSR() {
			continue
		}
		p, err := gen.Build(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := apk.Sign(p, signer); err != nil {
			b.Fatal(err)
		}
		raw, err := apk.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		pkgs = append(pkgs, p)
		items = append(items, item{raw: raw})
	}
	plan, err := sanitize.BuildPlan(&sanitize.SliceSource{Packages: pkgs}, nil, tsrKey)
	if err != nil {
		b.Fatal(err)
	}
	san := &sanitize.Sanitizer{
		Plan:      plan,
		TrustRing: keys.NewRing(signer.Public()),
		SignKey:   tsrKey,
		EPC:       enclave.DefaultCostModel(),
	}
	b.ResetTimer()
	start := time.Now()
	var count int
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		if _, err := san.Sanitize(it.raw); err != nil {
			b.Fatal(err)
		}
		count++
	}
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(count)/elapsed.Seconds(), "pkgs/s")
	}
}
