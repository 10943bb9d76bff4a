package experiments

import (
	"context"
	"errors"
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

// suiteCell identifies one independently runnable (app, policy) unit of the
// suite campaign. Cells share nothing — each builds a fresh workload and
// policy — so the pooled and sequential paths produce identical numbers.
type suiteCell struct {
	App, Policy string
}

// suiteCells enumerates the campaign's cells in table order.
func suiteCells(cfg Config) []suiteCell {
	apps := workload.AppNames()
	if cfg.Quick {
		apps = []string{"face_rec", "sphinx"}
	}
	cells := make([]suiteCell, 0, len(apps)*len(suitePolicies))
	for _, app := range apps {
		for _, pol := range suitePolicies {
			cells = append(cells, suiteCell{App: app, Policy: pol})
		}
	}
	return cells
}

// prepareSuiteCell splits one suite cell into its simulation and row mapper,
// the prepared form of runSuiteCell.
func prepareSuiteCell(cfg Config, c suiteCell) (sim.BatchRun, FinishCell, error) {
	br, err := prepareApp(cfg, c.App, workload.Set1, c.Policy)
	if err != nil {
		return sim.BatchRun{}, nil, fmt.Errorf("suite %s/%s: %w", c.App, c.Policy, err)
	}
	finish := func(r *sim.Result) (any, error) {
		return SuiteRow{
			App:          c.App,
			Policy:       c.Policy,
			AvgTempC:     r.AvgTempC,
			PeakTempC:    r.PeakTempC,
			CyclingMTTF:  r.CyclingMTTF,
			AgingMTTF:    r.AgingMTTF,
			CombinedMTTF: r.CombinedMTTF,
			ExecTimeS:    r.ExecTimeS,
		}, nil
	}
	return br, finish, nil
}

// runSuiteCell executes one cell of the suite campaign.
func runSuiteCell(cfg Config, c suiteCell) (SuiteRow, error) {
	br, finish, err := prepareSuiteCell(cfg, c)
	if err != nil {
		return SuiteRow{}, err
	}
	r, err := sim.Run(br.Cfg, br.Work, br.Policy)
	if err != nil {
		return SuiteRow{}, fmt.Errorf("suite %s/%s: %w", c.App, c.Policy, err)
	}
	row, err := finish(r)
	if err != nil {
		return SuiteRow{}, err
	}
	return row.(SuiteRow), nil
}

// Suite runs every ALPBench application (data set 1) under four policies —
// the paper's three plus a reactive thermal-throttling baseline — extending
// Table 2's three applications to the full five-app suite and adding the
// SOFR-combined lifetime. A failing cell no longer aborts the campaign: the
// surviving rows are returned together with the joined per-cell errors.
// Cancellation via ctx stops between cells and returns the partial rows.
func Suite(ctx context.Context, cfg Config) ([]SuiteRow, error) {
	var rows []SuiteRow
	var errs []error
	for _, c := range suiteCells(cfg) {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		row, err := runSuiteCell(cfg, c)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		rows = append(rows, row)
	}
	return rows, errors.Join(errs...)
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
