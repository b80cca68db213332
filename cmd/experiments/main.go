// Command experiments regenerates every table and figure of the
// paper's evaluation on the synthetic workload.
//
// Usage:
//
//	experiments [-run all|table1,fig8,...] [-scale 0.05] [-seed 1] [-max 150]
//
// -scale 1.0 reproduces the full 11,581-package population (several
// minutes of sanitization, as in the paper's Table 3).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tsr/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runList := fs.String("run", "all", "comma-separated experiment ids, or 'all'")
	scale := fs.Float64("scale", 0.05, "population scale (1.0 = full 11,581 packages)")
	seed := fs.Int64("seed", 1, "workload seed")
	maxPkgs := fs.Int("max", 150, "cap for per-package experiment loops (0 = no cap)")
	benchDir := fs.String("bench-dir", ".", "directory for BENCH_*.json emission (empty disables)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-16s %s\n", r.ID, r.Paper)
		}
		return nil
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, MaxPackages: *maxPkgs, BenchDir: *benchDir}

	var runners []experiments.Runner
	if *runList == "all" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			r, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			runners = append(runners, r)
		}
	}
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Println(tbl.Render())
		fmt.Printf("(%s completed in %s)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
