package experiments

//lint:file-allow detrand the workers ablation reports real wall-clock refresh times; wall-clock by design

import (
	"fmt"
	"time"

	"tsr/internal/tsr"
)

// AblationRefreshWorkers sweeps the refresh pipeline concurrency over a
// cold repository initialization: each worker count gets a fresh tenant
// (isolated caches), so every run downloads and sanitizes the full
// population. The wall-clock column is real time — the sanitization
// parallelism is real CPU parallelism, while the download column is
// modeled virtual time (batched transfers share the path bandwidth and
// save round trips). A final row refreshes the last tenant a second
// time after a forced replan: with an unchanged plan every package is a
// content-addressed cache hit and nothing is re-sanitized.
func AblationRefreshWorkers(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.Scale = minFloat(cfg.Scale, 0.01)
	t := &Table{
		Title:  "Ablation: cold refresh vs pipeline workers (content-addressed cache, worker-batched costs)",
		Header: []string{"Workers", "Wall clock", "Sanitized", "Cache hits", "Modeled download"},
	}
	var baseline time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		// A fresh world per row: sharing one store across rows would
		// grow the heap with every tenant's private cache copy and
		// penalize the later (wider) rows with GC pressure. The row's
		// tenant is the world's only one.
		w, err := newWorld(cfg, tsr.Config{})
		if err != nil {
			return nil, err
		}
		tenant, err := w.Deploy(w.Policy)
		if err != nil {
			return nil, err
		}
		tenant.SetWorkers(workers)
		start := time.Now()
		stats, err := tenant.Refresh()
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if workers == 1 {
			baseline = wall
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(workers),
			fmtDuration(wall),
			fmt.Sprint(stats.Sanitized),
			fmt.Sprint(stats.CacheHits),
			fmtDuration(stats.DownloadTime),
		})
		if workers == 8 {
			// Warm path: force a replan (as a restart would) and
			// refresh again — the rebuilt plan hashes identically, so
			// the whole population returns as cache hits.
			tenant.ForceReplan()
			start = time.Now()
			warm, err := tenant.Refresh()
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				"8 (replan, warm cache)",
				fmtDuration(time.Since(start)),
				fmt.Sprint(warm.Sanitized),
				fmt.Sprint(warm.CacheHits),
				fmtDuration(warm.DownloadTime),
			})
		}
	}
	if baseline > 0 && len(t.Rows) >= 3 {
		t.Notes = append(t.Notes, fmt.Sprintf("sequential baseline %s; the speedup is bounded by CPU cores and the per-package critical path", fmtDuration(baseline)))
	}
	t.Notes = append(t.Notes,
		"per-package failures no longer abort a cycle; they surface in RefreshStats.Errors and retry next refresh")
	return t, nil
}
