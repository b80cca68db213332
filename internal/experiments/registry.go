package experiments

import (
	"fmt"
	"sort"
)

// Runner is one registered experiment.
type Runner struct {
	// ID is the command-line name ("table1", "fig13", ...).
	ID string
	// Paper identifies the table/figure reproduced.
	Paper string
	// Run executes the experiment.
	Run func(Config) (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"table1", "Table 1", Table1},
		{"table2", "Table 2", Table2},
		{"table3", "Table 3", Table3},
		{"table4", "Table 4", Table4},
		{"fig8", "Figure 8", Fig8},
		{"fig9", "Figure 9", Fig9},
		{"fig10", "Figure 10", Fig10},
		{"fig11", "Figure 11", Fig11},
		{"fig12", "Figure 12", Fig12},
		{"fig13", "Figure 13", Fig13},
		{"ablation-epc", "DESIGN.md ablation 5", AblationEPCSize},
		{"ablation-quorum", "DESIGN.md ablation 1", AblationQuorumStrategy},
		{"ablation-parallel", "Table 3 future work", AblationParallelDownload},
		{"ablation-workers", "refresh pipeline scaling", AblationRefreshWorkers},
		{"fleet-soak", "composed-failure fleet soak", FleetSoak},
	}
}

// ByID returns the named experiment.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	var ids []string
	for _, r := range All() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return Runner{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
