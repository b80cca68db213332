// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) on the synthetic workload. Each experiment
// returns a Table whose rows mirror the paper's presentation, so the
// output of cmd/experiments can be compared side by side with the
// published numbers (see EXPERIMENTS.md for the comparison).
//
// Timing methodology: CPU-bound work (sanitization, crypto, archive
// processing) is measured for real; network transfers and SGX overhead
// are modeled virtual time (see DESIGN.md, "Substitutions").
package experiments

import (
	"fmt"
	"strings"
	"time"

	"tsr/internal/enclave"
	"tsr/internal/netsim"
	"tsr/internal/testbed"
	"tsr/internal/tsr"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale scales the package population (1.0 = full 11,581 packages).
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// MaxPackages caps per-package experiment loops (0 = no cap); used
	// to keep the end-to-end install experiment tractable by default.
	MaxPackages int
	// QuorumTrials is the number of reads per Figure 13 cell
	// (default 20, matching the paper's methodology).
	QuorumTrials int
	// EPC overrides the SGX cost model (zero value: paper defaults).
	EPC enclave.CostModel
	// BenchDir, when set, is where experiments that emit machine-readable
	// BENCH_*.json results (fleet-soak) write them. Empty disables
	// emission.
	BenchDir string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.03
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EPC == (enclave.CostModel{}) {
		c.EPC = enclave.DefaultCostModel()
	}
	if c.QuorumTrials <= 0 {
		c.QuorumTrials = 20
	}
	return c
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// World is the simulated deployment the latency and end-to-end
// experiments run on: a testbed with one deployed, refreshed tenant.
type World struct {
	*testbed.Testbed
	Tenant *tsr.Repo
}

// NewWorld builds the deployment: it publishes the scaled population,
// syncs the mirrors, deploys the testbed's policy and runs the initial
// Refresh. dataCenterLink swaps in the data-center link model.
func NewWorld(cfg Config, dataCenterLink bool) (*World, error) {
	cfg = cfg.withDefaults()
	var host tsr.Config
	if dataCenterLink {
		host.Link = netsim.DataCenterLinkModel(netsim.NewRNG(cfg.Seed + 1))
	}
	w, err := newWorld(cfg, host)
	if err != nil {
		return nil, err
	}
	if w.Tenant, err = w.Deploy(w.Policy); err != nil {
		return nil, err
	}
	if _, err := w.Tenant.Refresh(); err != nil {
		return nil, err
	}
	return w, nil
}

// newWorld builds the testbed on host — the caller's store, link and
// scheduler bounds — without deploying a tenant.
func newWorld(cfg Config, host tsr.Config) (*World, error) {
	cfg = cfg.withDefaults()
	host.EPC = cfg.EPC
	tb, err := testbed.New(testbed.Options{Scale: cfg.Scale, Seed: cfg.Seed, Host: host})
	if err != nil {
		return nil, err
	}
	return &World{Testbed: tb}, nil
}

// fmtDuration renders a duration in the paper's preferred unit (ms with
// sub-ms precision).
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
}

// fmtMinutes renders minutes like Table 3.
func fmtMinutes(d time.Duration) string {
	return fmt.Sprintf("%.1f min", d.Minutes())
}

func fmtBytesMB(n int64) string {
	return fmt.Sprintf("%.0f MB", float64(n)/1e6)
}
