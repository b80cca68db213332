package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// The traced run is separate from the end-to-end run and never feeds
// it. It makes two single-client passes over the same seeded op
// sequence: a short untraced one, then one with every seam decorated.
// Per-layer numbers come from three sources, all outside the program:
// the seam spans (self time per layer), the program's existing
// origin.refresh stage spans read back through Tracer.Store(), and the
// direct layer calls of layers.go. Between the two passes the program's
// own counters must agree exactly, which is what shows the decorators
// did not change its behaviour.

// countersAt is where each workload's two passes compare counters: ops
// for the read workloads, cycles for refresh_cycle, generations for
// fleet_update.
var countersAt = map[string]int{
	"index_poll": 400, "package_fetch": 400, "refresh_cycle": 1, "fleet_update": 3,
}

func runTraced(ctx context.Context, name string, o runOpts) (*runRecord, error) {
	fn := workloadFuncs[name]
	o.clients, o.setups, o.atOps = 1, 1, countersAt[name]

	plain := o
	plain.window = o.window / 4
	base, err := fn(ctx, plain)
	if err != nil {
		return nil, fmt.Errorf("untraced slice: %w", err)
	}

	rec := newRecorder()
	tr := o
	tr.window = o.window - plain.window
	tr.seams = tracedSeams(rec)
	tr.keepWorld = true
	res, err := fn(ctx, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	w := res.world
	defer w.close()

	out := newRecord(res, o, true)
	out.Attempted += base.attempted
	out.Failed += base.failed
	out.Errors = append(out.Errors, base.errs...)
	if len(base.counters) == 0 || len(res.counters) == 0 {
		out.Failed++
		out.Errors = append(out.Errors, "a pass ended before the counter comparison point")
	}
	for key, want := range base.counters {
		if got := res.counters[key]; got != want {
			out.Failed++
			out.Errors = append(out.Errors, fmt.Sprintf("counter %s: traced %d, untraced %d", key, got, want))
		}
	}

	values, err := layerCallsOn(ctx, w, o.outDir)
	if err != nil {
		return nil, err
	}
	for name, m := range res.phases {
		values[name] = m
	}
	ops := float64(max(res.ops, 1))

	// Seam spans: self time per layer, per unit of work.
	self := selfTimes(rec.link())
	sumPrefix := func(prefix string) float64 {
		var t time.Duration
		for name, d := range self {
			if strings.HasPrefix(name, prefix) {
				t += d
			}
		}
		return ms(t) / ops
	}
	values["edge.origin_self_ms_per_op"] = measurement{Value: sumPrefix("client.edge_origin.")}
	values["store.seam_self_ms_per_op"] = measurement{Value: sumPrefix("store.")}
	values["http.transport_self_ms_per_op"] = measurement{Value: sumPrefix("http.transport")}
	var resanitized int64
	for from, n := range rec.servedFrom {
		if from != "sanitized-cache" {
			resanitized += n
		}
	}
	values["tsr.served_resanitized"] = measurement{Value: float64(resanitized)}

	// The program's own refresh stage spans, every trace kept.
	stages := w.refreshTracer.Store().Stages()
	for _, stage := range []string{"quorum", "fetch", "plan", "sanitize", "sign", "publish", "seal"} {
		agg := stages["refresh."+stage]
		values["tsr.refresh."+stage+"_ms"] = measurement{Value: agg.MeanMs, Samples: int(agg.Count)}
	}
	values["tsr.refresh.sanitize_cpu_s"] = measurement{Value: w.sanitizeCPU.Seconds()}
	if cs := w.tenant.CacheStats(); cs.CacheHits+cs.Sanitized > 0 {
		values["tsr.sancache_hit_ratio"] = measurement{Value: float64(cs.CacheHits) / float64(cs.CacheHits+cs.Sanitized)}
	}

	values["proc.mallocs_per_op"] = measurement{Value: float64(res.proc.mallocs) / ops}
	values["proc.gc_pause_ms"] = measurement{Value: ms(res.proc.gcPause)}
	values["proc.cpu_user_s"] = measurement{Value: res.proc.user.Seconds()}
	values["proc.cpu_sys_s"] = measurement{Value: res.proc.sys.Seconds()}
	values["loadgen.op_p99_ms"] = measurement{Value: quantile(res.headline, 0.99), Samples: len(res.headline)}
	if res.totalMs > 0 {
		values["bench.primary_op_time_share"] = measurement{Value: res.primaryMs / res.totalMs}
	}
	if m := median(base.headline); m > 0 {
		values["bench.trace_overhead_pct"] = measurement{Value: 100 * (median(res.headline)/m - 1), Samples: len(base.headline)}
	}
	out.fill(perLayer, values)
	out.Correct = out.Failed == 0

	if err := rec.writeTrace(filepath.Join(o.outDir, name+".trace.json"), name, o.seed); err != nil {
		return nil, err
	}
	return out, nil
}
