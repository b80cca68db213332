// Command bench is the repository's benchmark: four workloads over the
// daemons' real serving stacks, booted in this process on loopback and
// driven closed-loop, with every byte read verified. BENCHMARK.json at
// the repository root names the command, the workloads and the metrics;
// README.md in this directory says why each exists.
//
//	go run ./bench -workload index_poll            # end-to-end metrics
//	go run ./bench -workload all -record A.jsonl   # all four, appended to a result file
//	go run ./bench -workload fleet_update -trace 1 # per-layer metrics + span file
//	go run ./bench -compare A.jsonl B.jsonl        # A/A check and regression gate
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when
// any operation failed or returned wrong data.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Run shape: clients and set-up repetitions of an end-to-end run. Load
// comes from this one process, closed loop, two clients on two
// connections — no more than the 2 vCPUs the numbers were sized on.
const (
	loadClients  = 2
	setupRepeats = 3
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: index_poll, package_fetch, refresh_cycle, fleet_update or all")
	seed := fs.Int64("seed", 1, "seed for file contents, bumped packages and the op sequence")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	traced := fs.Int("trace", 0, "1: traced single-client run printing the per-layer metrics and writing <out>/<workload>.trace.json")
	outDir := fs.String("out", "bench/out", "directory for span files and refresh_cycle's data dirs")
	record := fs.String("record", "", "append each run's result, with machine shape and catalog actuals, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 2, err
	}
	code := 0
	for _, name := range names {
		if workloadFuncs[name] == nil {
			return 2, fmt.Errorf("unknown workload %q", name)
		}
		o := runOpts{
			seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
			setups: setupRepeats, clients: loadClients, sizing: fullSizing, outDir: *outDir,
		}
		var rec *runRecord
		var err error
		if *traced != 0 {
			rec, err = runTraced(ctx, name, o)
		} else {
			rec, err = runEndToEnd(ctx, name, o)
		}
		if err != nil {
			return 2, fmt.Errorf("%s: %w", name, err)
		}
		rec.print(os.Stdout)
		if *record != "" {
			if err := rec.appendTo(*record); err != nil {
				return 2, err
			}
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code, nil
}

// runRecord is one run's result: the line appended to a result file.
// The driver's contract line is its correct/attempted/failed/metrics.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Clients   int                    `json:"loadgen_clients"`
	Commit    string                 `json:"commit"`
	Machine   machineShape           `json:"machine"`
	Catalog   catalogActuals         `json:"catalog"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]measurement `json:"metrics"`
}

func newRecord(res *runResult, o runOpts, traced bool) *runRecord {
	return &runRecord{
		Workload: res.workload, Traced: traced, Seed: o.seed, Seconds: o.window.Seconds(),
		Clients: res.clients, Commit: commit(), Machine: machine(), Catalog: res.catalog,
		Attempted: max(res.attempted, 1), Failed: res.failed, Errors: res.errs,
		Metrics: make(map[string]measurement),
	}
}

// runEndToEnd makes one untraced run — nothing interposed — and derives
// the end-to-end metrics.
func runEndToEnd(ctx context.Context, name string, o runOpts) (*runRecord, error) {
	res, err := workloadFuncs[name](ctx, o)
	if err != nil {
		return nil, err
	}
	rec := newRecord(res, o, false)
	ops := float64(max(res.ops, 1))
	values := map[string]measurement{
		"setup_s":         {Value: median(res.setups), Samples: len(res.setups)},
		"ops_per_s":       {Value: float64(res.ops) / res.busy.Seconds(), Samples: int(res.ops)},
		"op_p50_ms":       {Value: quantile(res.headline, 0.5), Samples: len(res.headline)},
		"op_p90_ms":       {Value: quantile(res.headline, 0.9), Samples: len(res.headline)},
		"nochange_p50_ms": {Value: median(res.nochange), Samples: len(res.nochange)},
		"cpu_ms_per_op":   {Value: ms(res.proc.cpu()) / ops, Samples: int(res.ops)},
		"alloc_kb_per_op": {Value: float64(res.proc.allocB) / 1e3 / ops, Samples: int(res.ops)},
		"wire_kb_per_op":  {Value: res.wireKB, Samples: int(res.ops)},
		"peak_rss_mb":     {Value: peakRSSMB()},
	}
	rec.fill(endToEnd, values)
	// An end-to-end metric that reads 0 means its operation never
	// completed; the run measured nothing there.
	for _, def := range endToEnd {
		if rec.Metrics[def.Name].Value <= 0 {
			rec.Failed++
			rec.Errors = append(rec.Errors, def.Name+" has no samples")
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// fill copies the defined metrics out of values, with their units; a
// metric the run has no value for reads 0.
func (r *runRecord) fill(defs []metricDef, values map[string]measurement) {
	for _, def := range defs {
		m := values[def.Name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		m.Unit = def.Unit
		r.Metrics[def.Name] = m
	}
}

// print writes every metric by name and unit, then the contract line.
func (r *runRecord) print(w *os.File) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g clients=%d catalog=%s packages=%d bytes=%d index_bytes=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Clients, r.Catalog.Name, r.Catalog.Packages, r.Catalog.Bytes, r.Catalog.IndexBytes)
	for _, def := range defs {
		m := r.Metrics[def.Name]
		fmt.Fprintf(w, "%-32s %14.4f %-6s n=%d\n", def.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "%-32s %14.6f %-6s n=%d\n", "fail_share", float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintln(w, "# error:", e)
	}
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]contractMetric, len(r.Metrics))}
	for name, m := range r.Metrics {
		line.Metrics[name] = contractMetric{m.Value, m.Unit}
	}
	out, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(out))
}

func (r *runRecord) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
