package experiments

import (
	"fmt"
	"strings"

	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig45Result compares the temperature profile of the proposed controller's
// exploration and exploitation phases against Linux ondemand on the face
// recognition application (Figs. 4 and 5).
type Fig45Result struct {
	// LinuxSeries and ProposedSeries are the across-core max temperature
	// profiles (for plotting).
	LinuxSeries, ProposedSeries *trace.Series
	// ExplorationEndS is the simulated time at which the proposed agent
	// left the exploration phase.
	ExplorationEndS float64
	// Window statistics: average of the across-core max temperature during
	// the exploration window (both policies) and during the exploitation
	// window (the final quarter of the proposed run).
	LinuxExploreAvgC, ProposedExploreAvgC float64
	LinuxExploitAvgC, ProposedExploitAvgC float64
}

// Fig45 runs face recognition under Linux ondemand and the proposed
// controller and extracts the exploration- and exploitation-phase profiles.
func Fig45(cfg Config) (*Fig45Result, error) {
	app, err := workload.ByName("face_rec", workload.Set1)
	if err != nil {
		return nil, err
	}
	lin, err := sim.Run(cfg.Run, app, sim.LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		return nil, err
	}
	app, err = workload.ByName("face_rec", workload.Set1)
	if err != nil {
		return nil, err
	}
	pol, err := newPolicy(cfg, PolicyProposed)
	if err != nil {
		return nil, err
	}
	pp := pol.(*sim.ProposedPolicy)
	pp.History = true
	prop, err := sim.Run(cfg.Run, app, pp)
	if err != nil {
		return nil, err
	}

	res := &Fig45Result{
		LinuxSeries:    lin.Trace.MaxSeries(),
		ProposedSeries: prop.Trace.MaxSeries(),
	}
	// Find the end of the exploration phase from the controller history:
	// the first epoch whose alpha dropped below the explore threshold.
	hist := pp.Controller().History()
	for _, h := range hist {
		if h.Alpha < 0.55 {
			res.ExplorationEndS = h.Time
			break
		}
	}
	if res.ExplorationEndS == 0 && len(hist) > 0 {
		res.ExplorationEndS = hist[len(hist)-1].Time
	}

	window := func(s *trace.Series, fromS, toS float64) float64 {
		from := int(fromS / s.IntervalS)
		to := int(toS / s.IntervalS)
		return trace.Mean(s.Window(from, to))
	}
	explEnd := res.ExplorationEndS
	res.LinuxExploreAvgC = window(res.LinuxSeries, 0, explEnd)
	res.ProposedExploreAvgC = window(res.ProposedSeries, 0, explEnd)
	// Exploitation window: the final quarter of the proposed run, compared
	// against the same relative window of the Linux run.
	pDur := res.ProposedSeries.Duration()
	lDur := res.LinuxSeries.Duration()
	res.ProposedExploitAvgC = window(res.ProposedSeries, 0.75*pDur, pDur)
	res.LinuxExploitAvgC = window(res.LinuxSeries, 0.75*lDur, lDur)
	return res, nil
}

// FormatFig45 renders the phase comparison.
func FormatFig45(r *Fig45Result) string {
	var sb strings.Builder
	sb.WriteString("Figs. 4-5 — learning phases on face recognition (across-core max temperature)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "window\tlinux ondemand (C)\tproposed (C)\tdelta (C)")
	fmt.Fprintf(w, "exploration (0-%.0fs)\t%.1f\t%.1f\t%+.1f\n",
		r.ExplorationEndS, r.LinuxExploreAvgC, r.ProposedExploreAvgC, r.ProposedExploreAvgC-r.LinuxExploreAvgC)
	fmt.Fprintf(w, "exploitation (last quarter)\t%.1f\t%.1f\t%+.1f\n",
		r.LinuxExploitAvgC, r.ProposedExploitAvgC, r.ProposedExploitAvgC-r.LinuxExploitAvgC)
	w.Flush()
	sb.WriteString("\nDuring exploration the proposed profile tracks Linux; after convergence it runs cooler (Fig. 5).\n")
	return sb.String()
}
