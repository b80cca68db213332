package workload

import (
	"bytes"
	"reflect"
	"testing"

	"tsr/internal/apk"
	"tsr/internal/script"
)

func TestFullScaleMatchesTable1(t *testing.T) {
	g := New(Config{Seed: 1, Scale: 1.0})
	main := TakeCensus(g.SpecsByRepo("main"))
	comm := TakeCensus(g.SpecsByRepo("community"))

	// Table 1 exact counts.
	if main.Total != 5665 {
		t.Errorf("main total = %d, want 5665", main.Total)
	}
	if comm.Total != 5916 {
		t.Errorf("community total = %d, want 5916", comm.Total)
	}
	if main.WithoutScript != 5531 {
		t.Errorf("main without scripts = %d, want 5531", main.WithoutScript)
	}
	if comm.WithoutScript != 5772 {
		t.Errorf("community without scripts = %d, want 5772", comm.WithoutScript)
	}
	if main.SafeScripts != 24 || comm.SafeScripts != 29 {
		t.Errorf("safe scripts = %d/%d, want 24/29", main.SafeScripts, comm.SafeScripts)
	}
	if main.UnsafeScripts != 110 || comm.UnsafeScripts != 115 {
		t.Errorf("unsafe scripts = %d/%d, want 110/115", main.UnsafeScripts, comm.UnsafeScripts)
	}
}

func TestFullScaleMatchesTable2(t *testing.T) {
	g := New(Config{Seed: 1, Scale: 1.0})
	main := TakeCensus(g.SpecsByRepo("main")).OpRows
	comm := TakeCensus(g.SpecsByRepo("community")).OpRows

	wantMain := map[script.OpClass]int{
		script.OpFilesystem:      30,
		script.OpEmpty:           5,
		script.OpTextProcessing:  17,
		script.OpConfigChange:    11,
		script.OpEmptyFile:       1,
		script.OpUserGroup:       97,
		script.OpShellActivation: 4,
	}
	wantComm := map[script.OpClass]int{
		script.OpFilesystem:      15,
		script.OpEmpty:           17,
		script.OpTextProcessing:  19,
		script.OpConfigChange:    7,
		script.OpEmptyFile:       0,
		script.OpUserGroup:       104,
		script.OpShellActivation: 6,
	}
	for op, want := range wantMain {
		if main[op] != want {
			t.Errorf("main %v = %d, want %d", op, main[op], want)
		}
	}
	for op, want := range wantComm {
		if comm[op] != want {
			t.Errorf("community %v = %d, want %d", op, comm[op], want)
		}
	}
}

func TestUnsupportedRateMatchesPaper(t *testing.T) {
	// §4.2: 28 packages (0.24%) unsupported; 99.76% supported.
	g := New(Config{Seed: 1, Scale: 1.0})
	c := TakeCensus(g.Specs())
	unsupported := c.Total - c.Supported
	if unsupported != 28 {
		t.Fatalf("unsupported = %d, want 28", unsupported)
	}
	rate := float64(c.Supported) / float64(c.Total)
	if rate < 0.9975 || rate > 0.9977 {
		t.Fatalf("support rate = %.4f, want ~0.9976", rate)
	}
}

func TestScaledPopulationKeepsAllRows(t *testing.T) {
	g := New(Config{Seed: 1, Scale: 0.02})
	c := TakeCensus(g.Specs())
	if c.Total < 200 {
		t.Fatalf("scaled total = %d", c.Total)
	}
	for _, op := range []script.OpClass{
		script.OpFilesystem, script.OpEmpty, script.OpTextProcessing,
		script.OpConfigChange, script.OpUserGroup, script.OpShellActivation,
	} {
		if c.OpRows[op] == 0 {
			t.Errorf("row %v empty at small scale", op)
		}
	}
	// The CVE pair survives scaling.
	var cve int
	for _, s := range g.Specs() {
		if s.Category == CatUserGroupShell {
			cve++
		}
	}
	if cve != 4 { // 2 in main + 2 in community
		t.Fatalf("CVE-style packages = %d, want 4", cve)
	}
}

func TestDeterminism(t *testing.T) {
	g1 := New(Config{Seed: 42, Scale: 0.01})
	g2 := New(Config{Seed: 42, Scale: 0.01})
	s1, s2 := g1.Specs(), g2.Specs()
	if len(s1) != len(s2) {
		t.Fatalf("spec counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if !reflect.DeepEqual(s1[i], s2[i]) {
			t.Fatalf("spec %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	p1, err := g1.Build(s1[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g2.Build(s2[0])
	if err != nil {
		t.Fatal(err)
	}
	raw1, _ := apk.Encode(p1)
	raw2, _ := apk.Encode(p2)
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("same seed produced different package bytes")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g1 := New(Config{Seed: 1, Scale: 0.01})
	g2 := New(Config{Seed: 2, Scale: 0.01})
	same := true
	for i := range g1.Specs() {
		if g1.Specs()[i].TotalSize != g2.Specs()[i].TotalSize {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical size draws")
	}
}

func TestBuildProducesValidPackages(t *testing.T) {
	g := New(Config{Seed: 3, Scale: 0.01})
	for _, spec := range g.Specs()[:50] {
		p, err := g.Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if p.Name != spec.Name {
			t.Fatalf("name = %s", p.Name)
		}
		raw, err := apk.Encode(p)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if _, err := apk.Decode(raw); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if spec.Category.HasScript() {
			src, ok := p.Scripts["post-install"]
			if !ok {
				t.Fatalf("%s: scripted category without script", spec.Name)
			}
			if _, err := script.Parse(src); err != nil {
				t.Fatalf("%s: script does not parse: %v", spec.Name, err)
			}
		} else if len(p.Scripts) != 0 {
			t.Fatalf("%s: unexpected script", spec.Name)
		}
	}
}

func TestScriptClassificationMatchesCategory(t *testing.T) {
	// The generated scripts must classify (via the script package) into
	// exactly the Table 2 rows their category claims.
	g := New(Config{Seed: 4, Scale: 0.02})
	for _, spec := range g.Specs() {
		if !spec.Category.HasScript() {
			continue
		}
		p, err := g.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		classes := script.Classify(script.MustParse(p.Scripts["post-install"]))
		want := opRows(spec.Category)
		for _, op := range want {
			if !classes[op] {
				t.Fatalf("%s (%v): classes %v missing %v", spec.Name, spec.Category, classes, op)
			}
		}
		if len(classes) != len(want) {
			t.Fatalf("%s (%v): classes %v, want exactly %v", spec.Name, spec.Category, classes, want)
		}
	}
}

func TestFileSizesSumToTotal(t *testing.T) {
	g := New(Config{Seed: 5, Scale: 0.01})
	for _, spec := range g.Specs()[:30] {
		p, err := g.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, f := range p.Files {
			sum += int64(len(f.Content))
		}
		// Config/shell categories add small extra files.
		extra := int64(0)
		switch spec.Category {
		case CatConfig:
			extra = int64(len("key=placeholder\n"))
		case CatShell, CatUserGroupShell:
			extra = int64(len("#!shell " + spec.Name))
		}
		if sum != spec.TotalSize+extra {
			t.Fatalf("%s: sum %d != total %d (+%d)", spec.Name, sum, spec.TotalSize, extra)
		}
	}
}

func TestSizeDistributionShape(t *testing.T) {
	g := New(Config{Seed: 6, Scale: 1.0})
	var sizes []int64
	var epcTail int
	for _, s := range g.Specs() {
		sizes = append(sizes, s.TotalSize)
		if s.TotalSize > 128<<20 {
			epcTail++
		}
	}
	// A handful of packages exceed the EPC, as in Figures 8/12.
	if epcTail == 0 {
		t.Fatal("no packages exceed the EPC")
	}
	if epcTail > len(sizes)/100 {
		t.Fatalf("too many EPC-busting packages: %d", epcTail)
	}
	// Total repository size lands in the right ballpark (paper: ~3 GB).
	var total int64
	for _, s := range sizes {
		total += s
	}
	if total < 1e9 || total > 8e9 {
		t.Fatalf("total repo size = %.1f GB, want 1-8 GB", float64(total)/1e9)
	}
}

func TestCVEPackagesHaveEmptyPassword(t *testing.T) {
	g := New(Config{Seed: 7, Scale: 1.0})
	for _, spec := range g.Specs() {
		if spec.Category != CatUserGroupShell {
			continue
		}
		p, err := g.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		src := p.Scripts["post-install"]
		if !bytes.Contains([]byte(src), []byte("passwd -d")) {
			t.Fatalf("%s: no empty-password command", spec.Name)
		}
		if !bytes.Contains([]byte(src), []byte("-s /bin/ash")) {
			t.Fatalf("%s: no interactive shell", spec.Name)
		}
	}
}

func TestCategoryStringAndPredicates(t *testing.T) {
	if CatUserGroupShell.String() != "usergroup+shell" {
		t.Fatal("category string")
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category string empty")
	}
	if CatNoScript.HasScript() || !CatFS.HasScript() {
		t.Fatal("HasScript wrong")
	}
	if !CatNoScript.SupportedByTSR() || CatConfig.SupportedByTSR() || CatShell.SupportedByTSR() || CatUserGroupShell.SupportedByTSR() {
		t.Fatal("SupportedByTSR wrong")
	}
}
