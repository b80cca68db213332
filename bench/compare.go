package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// -compare A B: the A/A check now and the regression gate later. Each
// file holds any number of runs (one JSON object per line, as -record
// appends them). For every (end-to-end metric, workload) pair present in
// both, it prints both medians, the change as a share of A's median
// (positive = worse), the bound, and a verdict:
//
//	worse       B's median is worse than A's by more than the bound
//	unresolved  the run-to-run spread on either side is wider than the
//	            bound, so the medians cannot tell — unless every run of
//	            B reads better than every run of A
//	ok          otherwise
//
// The exit code is 1 when any pair is worse.

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects one end-to-end metric's values per workload.
func series(recs []runRecord, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict judges B against A for one metric.
func verdict(def metricDef, a, b []float64) (delta float64, status string) {
	ma, mb := median(a), median(b)
	sign := 1.0 // delta > 0 means worse
	if def.Better == "higher" {
		sign = -1
	}
	if ma != 0 {
		delta = sign * (mb - ma) / ma
	}
	if delta > def.Bound {
		return delta, "worse"
	}
	if max(spread(a), spread(b)) > def.Bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if def.Better == "higher" {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if !allBetter {
			return delta, "unresolved"
		}
	}
	return delta, "ok"
}

func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "%-16s %-14s %4s %12s %8s %12s %8s %8s %6s  %s\n",
		"metric", "workload", "n", "A median", "A iqr%", "B median", "B iqr%", "delta%", "bound%", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, def := range endToEnd {
			xa, xb := series(a, wl.Name, def.Name), series(b, wl.Name, def.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			delta, status := verdict(def, xa, xb)
			if status == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-14s %4d %12.4f %8.2f %12.4f %8.2f %+8.2f %6.1f  %s\n",
				def.Name, wl.Name, min(len(xa), len(xb)), median(xa), 100*spread(xa), median(xb), 100*spread(xb),
				100*delta, 100*def.Bound, status)
		}
	}
	return code, nil
}
