// Command tsrlint runs the repo's static-analysis suite
// (internal/analysis): repo-specific analyzers that mechanically
// enforce the invariants the system depends on — edges never sign,
// handler errors route through statusFor, published snapshots are
// frozen, the serving path is lock-free, deterministic packages stay
// deterministic, outgoing HTTP carries contexts and timeouts, and
// internal/ exports nothing that only tests use. docs/LINT.md
// documents each analyzer and the //lint:allow escape hatch.
//
// Two modes:
//
//	go run ./cmd/tsrlint ./...          # standalone, whole-tree
//	go vet -vettool=$(which tsrlint) ./...  # driven by the go tool
//
// The standalone mode loads packages itself (via `go list -export`)
// and exits 1 if any diagnostic survives the allow filter. Given the
// whole module (./...), it also runs deadexport, the check that needs
// every package at once. The vet mode speaks the cmd/go vettool
// protocol: -V=full for build caching, -flags for flag discovery, and
// a JSON .cfg file per compilation unit; it sees one unit at a time,
// so it skips deadexport.
//
// Flags (standalone mode):
//
//	-checks noresign,detrand   run a subset of analyzers
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"tsr/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsrlint: ")

	fs := flag.NewFlagSet("tsrlint", flag.ExitOnError)
	fs.Var(versionFlag{}, "V", "print version and exit (the go vet -vettool protocol)")
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON (the go vet -vettool protocol)")
	checks := fs.String("checks", "", "comma-separated analyzer subset (default: all)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
	if *printFlags {
		// No analyzer-specific flags: report none to cmd/go.
		fmt.Println("[]")
		return
	}

	analyzers := analysis.All()
	if *checks != "" {
		var ok bool
		if analyzers, ok = analysis.ByName(strings.Split(*checks, ",")); !ok {
			log.Fatalf("unknown analyzer in -checks=%s (known: %s)", *checks, knownNames())
		}
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVetUnit(args[0], analyzers) // invoked by go vet
		return
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	runStandalone(args, analyzers)
}

func knownNames() string {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ",")
}

// runStandalone loads the patterns from the current directory and
// reports every diagnostic, exiting 1 if there are any.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer) {
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

// versionFlag implements the -V=full protocol required by "go vet":
// print a line identifying this executable's contents so the build
// system can cache vet results keyed by tool identity.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	prog, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(prog)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", prog, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}
