package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"tsr/internal/tsr"
)

// Small scale keeps the suite fast while exercising every code path.
const testScale = 0.008

func testCfg() Config {
	return Config{Scale: testScale, Seed: 11, MaxPackages: 25, QuorumTrials: 5}
}

func TestTable1SmallScale(t *testing.T) {
	tbl, err := Table1(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	out := tbl.Render()
	if !strings.Contains(out, "Without scripts") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable2SmallScale(t *testing.T) {
	tbl, err := Table2(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d (Table 2 has 7 operation classes)", len(tbl.Rows))
	}
	// The unsafe rows must show TSR=yes only for sanitizable classes.
	var sawShell bool
	for _, row := range tbl.Rows {
		if row[2] == "Shell activation" {
			sawShell = true
			if row[4] != "no" {
				t.Fatalf("shell activation TSR column = %q", row[4])
			}
		}
	}
	if !sawShell {
		t.Fatal("no shell activation row")
	}
}

func TestTable3SmallScale(t *testing.T) {
	tbl, err := Table3(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Pessimistic total >= optimistic total (extra download time).
	if tbl.Rows[3][0] < tbl.Rows[3][1] {
		t.Fatalf("pessimistic < optimistic: %v", tbl.Rows[3])
	}
}

func TestTable4CorrelationSigns(t *testing.T) {
	cfg := testCfg()
	cfg.Scale = 0.02 // more samples stabilize the correlations
	tbl, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	find := func(op string) []string {
		for _, row := range tbl.Rows {
			if row[0] == op {
				return row
			}
		}
		t.Fatalf("missing row %q", op)
		return nil
	}
	// The paper's headline signs must reproduce:
	// archive share grows with size; integrity-check share shrinks with
	// size; signature share grows with file count.
	if !strings.Contains(find("archive, compress")[2], "+") {
		t.Errorf("archive vs size should be positive: %v", find("archive, compress"))
	}
	if !strings.Contains(find("check integrity")[2], "-") {
		t.Errorf("check integrity vs size should be negative: %v", find("check integrity"))
	}
	if !strings.Contains(find("generate signatures")[1], "+") {
		t.Errorf("signatures vs files should be positive: %v", find("generate signatures"))
	}
}

func TestFig8Shape(t *testing.T) {
	tbl, err := Fig8(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Sanitization time is heavy-tailed: p95 > p50.
	p50 := parseMs(t, tbl.Rows[0][1])
	p95 := parseMs(t, tbl.Rows[2][1])
	if p95 <= p50 {
		t.Fatalf("p95 %.2f <= p50 %.2f", p95, p50)
	}
}

func TestFig9Shape(t *testing.T) {
	tbl, err := Fig9(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Overhead percentiles increase and the total is positive but far
	// below the per-package median (large packages dilute it).
	var notesJoined string
	for _, n := range tbl.Notes {
		notesJoined += n + "\n"
	}
	if !strings.Contains(notesJoined, "total repository size") {
		t.Fatalf("notes:\n%s", notesJoined)
	}
}

func TestFig10CacheOrdering(t *testing.T) {
	tbl, err := Fig10(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	means := map[string]float64{}
	for _, row := range tbl.Rows {
		means[row[0]] = parseMs(t, row[3])
	}
	// The paper's ordering: sanitized cache << original cache < none.
	if !(means["Sanitized"] < means["Original"] && means["Original"] < means["None"]) {
		t.Fatalf("cache means out of order: %v", means)
	}
}

func TestFig11TSRSlowerThanMirror(t *testing.T) {
	cfg := testCfg()
	tbl, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsrMean := parseMs(t, tbl.Rows[0][3])
	mirrorMean := parseMs(t, tbl.Rows[1][3])
	// TSR installs the extra signatures: the gap stays moderate
	// (paper: 1.28x; here the in-memory filesystem compresses it to
	// ~1x, see EXPERIMENTS.md). Allow scheduling noise either way.
	if tsrMean < mirrorMean*0.7 {
		t.Fatalf("TSR %.2f ms unexpectedly faster than mirror %.2f ms", tsrMean, mirrorMean)
	}
	if tsrMean > mirrorMean*5 {
		t.Fatalf("TSR %.2f ms unreasonably slower than mirror %.2f ms", tsrMean, mirrorMean)
	}
}

func TestFig12OverheadBands(t *testing.T) {
	tbl, err := Fig12(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		factor := parseFactor(t, row[3])
		if factor < 1.05 || factor > 2.1 {
			t.Fatalf("row %v: factor %.2f outside the paper's 1.1-2.0 band", row, factor)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tbl, err := Fig13(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Same-continent quorum with up to 5 mirrors stays under 400 ms.
	for n := 1; n <= 5; n++ {
		eu := parseMs(t, tbl.Rows[n-1][1])
		if eu >= 400 {
			t.Fatalf("Europe n=%d latency %.0f ms >= 400 ms", n, eu)
		}
	}
	// Asia is always slower than Europe (for the Europe-based TSR).
	for i := range tbl.Rows {
		eu := parseMs(t, tbl.Rows[i][1])
		asia := parseMs(t, tbl.Rows[i][3])
		if asia <= eu {
			t.Fatalf("row %d: Asia %.0f <= Europe %.0f", i+1, asia, eu)
		}
	}
	// "All" must track the faster continents, not Asia: for 9 mirrors
	// it stays well under the paper's 2.2 s budget.
	all9 := parseMs(t, tbl.Rows[8][4])
	if all9 > 2200 {
		t.Fatalf("All n=9 latency %.0f ms > 2.2 s", all9)
	}
	// Latency grows with the mirror count (the paper's Figure 13 trend):
	// more mirrors mean a larger f+1 quorum sharing the bandwidth.
	eu1 := parseMs(t, tbl.Rows[0][1])
	eu10 := parseMs(t, tbl.Rows[9][1])
	if eu10 <= eu1 {
		t.Fatalf("Europe latency does not grow: n=1 %.0f ms, n=10 %.0f ms", eu1, eu10)
	}
}

func TestAblationEPCMonotone(t *testing.T) {
	tbl, err := AblationEPCSize(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Within a row (fixed working set), a larger EPC never increases
	// the factor; within a column (fixed EPC), a larger working set
	// never decreases it.
	for _, row := range tbl.Rows {
		prev := 1e9
		for _, cell := range row[1:] {
			f := parseFactor(t, cell)
			if f > prev {
				t.Fatalf("factor increased with EPC: %v", row)
			}
			prev = f
		}
	}
	for col := 1; col < len(tbl.Header); col++ {
		prev := 0.0
		for _, row := range tbl.Rows {
			f := parseFactor(t, row[col])
			if f < prev {
				t.Fatalf("factor decreased with working set in column %d", col)
			}
			prev = f
		}
	}
}

func TestAblationQuorumFaster(t *testing.T) {
	tbl, err := AblationQuorumStrategy(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	fast := parseMs(t, tbl.Rows[0][1])
	all := parseMs(t, tbl.Rows[1][1])
	if fast >= all {
		t.Fatalf("fastest-f+1 (%.0f ms) not faster than wait-for-all (%.0f ms)", fast, all)
	}
}

func TestRegistryComplete(t *testing.T) {
	var ids []string
	for _, r := range All() {
		ids = append(ids, r.ID)
	}
	want := []string{"table1", "table2", "table3", "table4",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"ablation-epc", "ablation-quorum", "ablation-parallel",
		"ablation-workers", "fleet-soak"}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("registry = %v, want %v", ids, want)
	}
	// The docs list the same ids, in the same order: a registered
	// experiment missing from EXPERIMENTS.md, or a documented one that
	// no longer exists, is drift.
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if got := documentedIDs(string(doc)); strings.Join(got, " ") != strings.Join(ids, " ") {
		t.Fatalf("EXPERIMENTS.md id tables list %v, registry has %v", got, ids)
	}
	if _, err := ByID("fig8"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("want error for unknown id")
	}
}

// documentedIDs returns the first cell of every row of the markdown
// tables whose header's first column is "id", backticks stripped.
func documentedIDs(doc string) []string {
	var ids []string
	inTable := false
	for _, line := range strings.Split(doc, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			inTable = false
			continue
		}
		first := strings.TrimSpace(cells[1])
		switch {
		case first == "id":
			inTable = true
		case inTable && !strings.HasPrefix(first, "---"):
			ids = append(ids, strings.Trim(first, "`"))
		}
	}
	return ids
}

func TestWorldRejectsKnownUnsupported(t *testing.T) {
	w, err := NewWorld(testCfg(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rejected := w.Tenant.RejectedPackages()
	if len(rejected) == 0 {
		t.Fatal("no rejected packages despite config/shell categories in the population")
	}
	// The CVE-style packages produce security findings.
	if len(w.Tenant.Findings()) == 0 {
		t.Fatal("no security findings despite CVE-style packages")
	}
	_ = tsr.CacheBoth // keep the import for clarity of the world's type
}

func parseMs(t *testing.T, cell string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(cell, "%f ms", &v); err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func parseFactor(t *testing.T, cell string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(cell, "%fx", &v); err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestAblationParallelMonotone(t *testing.T) {
	cfg := testCfg()
	cfg.Scale = 0.004 // the sweep builds four worlds
	tbl, err := AblationParallelDownload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := parseMs(t, tbl.Rows[0][2])
	par8 := parseMs(t, tbl.Rows[len(tbl.Rows)-1][2])
	if par8 >= seq {
		t.Fatalf("8-way download %.1f ms not faster than sequential %.1f ms", par8, seq)
	}
}

func TestAblationRefreshWorkers(t *testing.T) {
	cfg := testCfg()
	cfg.Scale = 0.004 // the sweep refreshes four fresh tenants
	tbl, err := AblationRefreshWorkers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 { // 1, 2, 4, 8 workers + the warm replan row
		t.Fatalf("rows = %d:\n%s", len(tbl.Rows), tbl.Render())
	}
	// Modeled download time must drop with parallelism (round trips
	// overlap) and the warm replan row must sanitize nothing.
	seq := parseMs(t, tbl.Rows[0][4])
	par8 := parseMs(t, tbl.Rows[3][4])
	if par8 >= seq {
		t.Fatalf("8-way download %.1f ms not faster than sequential %.1f ms", par8, seq)
	}
	warm := tbl.Rows[4]
	if warm[2] != "0" || warm[3] == "0" {
		t.Fatalf("warm replan row = %v (want 0 sanitized, >0 cache hits)", warm)
	}
}
