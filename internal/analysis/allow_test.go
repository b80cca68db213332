package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"tsr/internal/analysis"
)

// TestAllowDirectives pins the escape hatch's whole contract against
// testdata/src/lintallow, run through the full analyzer suite exactly
// as the driver would:
//
//   - allowed.go: a well-formed line allow suppresses its violation;
//   - fileallow.go: a file-level allow suppresses the whole file;
//   - malformed.go: a reason-less directive is itself reported and
//     suppresses nothing;
//   - unknown.go: a directive naming a nonexistent analyzer is itself
//     reported and suppresses nothing.
func TestAllowDirectives(t *testing.T) {
	unit, err := analysis.LoadDir(".", "testdata/src/lintallow", "tsr/internal/chaos")
	if err != nil {
		t.Fatalf("loading lintallow testdata: %v", err)
	}
	diags, err := analysis.RunUnit(unit, analysis.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}

	want := []struct {
		file     string
		analyzer string
		substr   string
	}{
		{"malformed.go", "lintallow", "the reason is mandatory"},
		{"malformed.go", "detrand", "reads the wall clock"},
		{"unknown.go", "lintallow", `unknown analyzer "detrnad"`},
		{"unknown.go", "detrand", "reads the wall clock"},
	}
	matched := make([]bool, len(diags))
	for _, w := range want {
		found := false
		for i, d := range diags {
			if matched[i] {
				continue
			}
			if filepath.Base(d.Pos.Filename) == w.file && d.Analyzer == w.analyzer &&
				strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic: %s %s %q", w.file, w.analyzer, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestAllowDirectivesUnderSubset: a run of a subset of the suite (the
// -checks form of tsrlint) checks allow directives against the whole
// suite. An allow naming an analyzer outside the subset is well formed,
// so it is not reported; one naming no analyzer at all still is.
func TestAllowDirectivesUnderSubset(t *testing.T) {
	unit, err := analysis.LoadDir(".", "testdata/src/lintallow", "tsr/internal/chaos")
	if err != nil {
		t.Fatalf("loading lintallow testdata: %v", err)
	}
	subset, ok := analysis.ByName([]string{"blobview"})
	if !ok {
		t.Fatal("blobview is not in the suite")
	}
	diags, err := analysis.RunUnit(unit, subset)
	if err != nil {
		t.Fatalf("running blobview: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, filepath.Base(d.Pos.Filename)+" "+d.Analyzer+": "+d.Message)
	}
	if len(diags) != 2 ||
		!strings.HasPrefix(got[0], "malformed.go lintallow") || !strings.Contains(got[0], "the reason is mandatory") ||
		!strings.HasPrefix(got[1], "unknown.go lintallow") || !strings.Contains(got[1], `unknown analyzer "detrnad"`) {
		t.Fatalf("diagnostics under -checks blobview:\n%s\nwant only the malformed and the unknown-analyzer directive", strings.Join(got, "\n"))
	}
}
