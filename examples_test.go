package tsrbench

import (
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExamplesRun builds every program under examples/ once and runs
// each one: it must exit 0 and print each of its steps. The examples
// have no test files of their own, so without this test `go test ./...`
// would neither build nor run them.
func TestExamplesRun(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go binary not found: %v", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command(goBin, "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/... failed: %v\n%s", err, out)
	}
	// Each example's step lines, by how each one starts: the step and,
	// where the step has one, the outcome it demonstrates.
	steps := map[string][]string{
		"quickstart": {"1. published ntpd", "2. policy deployed", "3. refresh:",
			"4. installed ntpd through TSR", "5. attestation OK"},
		"byzantine-mirrors": {"1. TSR serves openssl-1.1.1f-r0", "2. adversary compromises 2/5",
			"3. quorum read contacted 5 mirrors; TSR now serves openssl-1.1.1g-r0", "4. with 3/5 mirrors Byzantine"},
		"attestation": {"A. legitimate update from a plain mirror: attestation OK=false",
			"B. adversary-tampered library:               attestation OK=false",
			"C. the same update through TSR:              attestation OK=true, 0 violations",
			"D. compromise after the TSR update:          attestation OK=false"},
		"multitenant": {"1. one TSR instance, two tenants", "2. tenant A serves busybox=true acme-agent=false",
			"   tenant B serves busybox=true acme-agent=true", "3. tenant A's packages do not verify",
			"4. sealed state"},
		"edge-fanout": {"origin: ", "== edge tier", "== client in Oceania", "== byzantine edge",
			"zero unverified bytes accepted"},
	}
	for name, want := range steps {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			lines := strings.Split(string(out), "\n")
			for _, prefix := range want {
				if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, prefix) }) {
					t.Errorf("%s printed no line starting %q:\n%s", name, prefix, out)
				}
			}
		})
	}
}
