package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// SuiteRow reports one (application, policy) cell across the full ALPBench
// suite — all five applications the paper lists in Section 6, including the
// two (face_rec, sphinx) that Table 2 omits.
type SuiteRow struct {
	App                    string
	Policy                 string
	AvgTempC, PeakTempC    float64
	CyclingMTTF, AgingMTTF float64
	CombinedMTTF           float64
	ExecTimeS              float64
}

// suitePolicies adds the reactive-throttle industrial baseline to the
// paper's three policies.
var suitePolicies = []string{PolicyLinuxOndemand, PolicyThrottle, PolicyGe, PolicyProposed}

// suiteCells plans one cell per (application, policy), in table order.
func suiteCells(cfg Config) []Cell {
	apps := workload.AppNames()
	if cfg.Quick {
		apps = []string{"face_rec", "sphinx"}
	}
	cells := make([]Cell, 0, len(apps)*len(suitePolicies))
	for _, app := range apps {
		for _, pol := range suitePolicies {
			key := fmt.Sprintf("suite/%s/%s", app, pol)
			cells = append(cells, appCell(cfg, key, app, workload.Set1, pol, func(r *sim.Result) any {
				return SuiteRow{
					App:          app,
					Policy:       pol,
					AvgTempC:     r.AvgTempC,
					PeakTempC:    r.PeakTempC,
					CyclingMTTF:  r.CyclingMTTF,
					AgingMTTF:    r.AgingMTTF,
					CombinedMTTF: r.CombinedMTTF,
					ExecTimeS:    r.ExecTimeS,
				}
			}))
		}
	}
	return cells
}

// Suite runs every ALPBench application (data set 1) under four policies —
// the paper's three plus a reactive thermal-throttling baseline — extending
// Table 2's three applications to the full five-app suite and adding the
// SOFR-combined lifetime. It is the sequential reference for the suite's
// cells, with RunCells' semantics: a failing cell leaves the surviving rows
// next to the joined errors, and cancellation stops between cells.
func Suite(ctx context.Context, cfg Config) ([]SuiteRow, error) {
	return runAs[SuiteRow](ctx, suiteCells(cfg))
}

// FormatSuite renders the full-suite table.
func FormatSuite(rows []SuiteRow) string {
	var sb strings.Builder
	sb.WriteString("Full ALPBench suite (data set 1) — including face_rec and sphinx\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "app\tpolicy\tavg T (C)\tpeak T (C)\tcycling MTTF (y)\taging MTTF (y)\tSOFR MTTF (y)\texec (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.0f\n",
			r.App, r.Policy, r.AvgTempC, r.PeakTempC, r.CyclingMTTF, r.AgingMTTF, r.CombinedMTTF, r.ExecTimeS)
	}
	w.Flush()
	return sb.String()
}
