package experiments

import "testing"

// TestSeedDeterminism runs registered experiments twice with the same
// Config.Seed and requires byte-identical rendered tables. The subset
// covers each deterministic-by-construction family — census counts
// (table1/table2) and seeded quorum trials on modeled clocks (fig13);
// experiments that render wall-clock CPU measurements (fig10/fig11,
// sanitization, soak) are inherently run-to-run variable and are
// excluded, but their row structure is covered by their own tests.
func TestSeedDeterminism(t *testing.T) {
	for _, id := range []string{"table1", "table2", "fig13"} {
		t.Run(id, func(t *testing.T) {
			r, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			run := func() string {
				tbl, err := r.Run(testCfg())
				if err != nil {
					t.Fatal(err)
				}
				return tbl.Render()
			}
			first, second := run(), run()
			if first != second {
				t.Fatalf("two runs with the same seed differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
			}
		})
	}
}
