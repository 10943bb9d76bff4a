package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Table2Cell is one (application, data set, policy) measurement of Table 2.
type Table2Cell struct {
	App     string
	DataSet workload.DataSet
	Policy  string
	// AvgTempC, PeakTempC, CyclingMTTF (years), AgingMTTF (years) are the
	// four quantities Table 2 reports per cell.
	AvgTempC, PeakTempC    float64
	CyclingMTTF, AgingMTTF float64
	ExecTimeS              float64
}

// table2Policies are the three columns of Table 2.
var table2Policies = []string{PolicyLinuxOndemand, PolicyGe, PolicyProposed}

// table2Apps are the three applications of Table 2.
var table2Apps = []string{"tachyon", "mpeg_dec", "mpeg_enc"}

// table2Cells plans one cell per (application, data set, policy), in table
// order.
func table2Cells(cfg Config) []Cell {
	sets := []workload.DataSet{workload.Set1, workload.Set2, workload.Set3}
	if cfg.Quick {
		sets = sets[:1]
	}
	cells := make([]Cell, 0, len(table2Apps)*len(sets)*len(table2Policies))
	for _, app := range table2Apps {
		for _, ds := range sets {
			for _, pol := range table2Policies {
				key := fmt.Sprintf("table2/%s/%v/%s", app, ds, pol)
				cells = append(cells, appCell(cfg, key, app, ds, pol, func(r *sim.Result) any {
					return Table2Cell{
						App:         app,
						DataSet:     ds,
						Policy:      pol,
						AvgTempC:    r.AvgTempC,
						PeakTempC:   r.PeakTempC,
						CyclingMTTF: r.CyclingMTTF,
						AgingMTTF:   r.AgingMTTF,
						ExecTimeS:   r.ExecTimeS,
					}
				}))
			}
		}
	}
	return cells
}

// Table2 reproduces the intra-application evaluation: average temperature,
// peak temperature and MTTF due to thermal cycling and aging for three
// applications x three data sets x {Linux ondemand, Ge et al. [7], Proposed}.
// It is the sequential reference for Table 2's cells, with RunCells'
// semantics: a failing cell leaves the surviving rows next to the joined
// errors, and cancellation stops between cells.
func Table2(ctx context.Context, cfg Config) ([]Table2Cell, error) {
	return runAs[Table2Cell](ctx, table2Cells(cfg))
}

// FormatTable2 renders the paper's Table 2 layout: one row per
// (application, data set), with the three policies side by side for each
// reported quantity.
func FormatTable2(cells []Table2Cell) string {
	type key struct {
		app string
		ds  workload.DataSet
	}
	byRow := map[key]map[string]Table2Cell{}
	var order []key
	for _, c := range cells {
		k := key{c.App, c.DataSet}
		if byRow[k] == nil {
			byRow[k] = map[string]Table2Cell{}
			order = append(order, k)
		}
		byRow[k][c.Policy] = c
	}
	var sb strings.Builder
	sb.WriteString("Table 2 — intra-application MTTF (years; idle core normalized to 10 years)\n")
	sb.WriteString("columns per quantity: Linux ondemand | Ge et al. [7] | Proposed\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "app\tdata\tavg T (C)\tpeak T (C)\tcycling MTTF\taging MTTF")
	for _, k := range order {
		m := byRow[k]
		lin, ge, pr := m[PolicyLinuxOndemand], m[PolicyGe], m[PolicyProposed]
		fmt.Fprintf(w, "%s\t%v\t%.1f | %.1f | %.1f\t%.1f | %.1f | %.1f\t%.1f | %.1f | %.1f\t%.1f | %.1f | %.1f\n",
			k.app, k.ds,
			lin.AvgTempC, ge.AvgTempC, pr.AvgTempC,
			lin.PeakTempC, ge.PeakTempC, pr.PeakTempC,
			lin.CyclingMTTF, ge.CyclingMTTF, pr.CyclingMTTF,
			lin.AgingMTTF, ge.AgingMTTF, pr.AgingMTTF)
	}
	w.Flush()
	return sb.String()
}
