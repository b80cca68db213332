// Command tsrlint runs the repo's static-analysis suite
// (internal/analysis): repo-specific analyzers that mechanically
// enforce the invariants the system depends on — edges never sign,
// handler errors route through statusFor, published snapshots are
// frozen, the serving path is lock-free, deterministic packages stay
// deterministic, outgoing HTTP carries contexts and timeouts, and
// internal/ exports nothing that only tests use. docs/LINT.md
// documents each analyzer and the //lint:allow escape hatch.
//
//	go run ./cmd/tsrlint ./...                  # the whole module
//	go run ./cmd/tsrlint -checks noresign,detrand ./internal/edge
//
// tsrlint loads the packages itself (via `go list -export`) and exits
// 1 if any diagnostic survives the allow filter. Given the whole
// module (./..., the default), it also runs deadexport, the check
// that needs every package at once. -checks runs a subset of the
// analyzers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tsr/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsrlint: ")

	fs := flag.NewFlagSet("tsrlint", flag.ExitOnError)
	checks := fs.String("checks", "", "comma-separated analyzer subset (default: all)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		log.Fatal(err)
	}

	analyzers := analysis.All()
	if *checks != "" {
		var ok bool
		if analyzers, ok = analysis.ByName(strings.Split(*checks, ",")); !ok {
			log.Fatalf("unknown analyzer in -checks=%s (known: %s)", *checks, knownNames())
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := analysis.Load(".", patterns...)
	if err != nil {
		log.Fatal(err)
	}
	wholeModule := len(patterns) == 1 && patterns[0] == "./..."
	diags, err := analysis.RunUnits(units, analyzers, wholeModule)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func knownNames() string {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ",")
}
