package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig3Row is one (scenario, policy) cell of the inter-application
// experiment.
type Fig3Row struct {
	Scenario string
	Policy   string
	// CyclingMTTF is the absolute value in years; Normalized is relative
	// to Linux ondemand on the same scenario (the figure's y axis).
	CyclingMTTF float64
	Normalized  float64
	ExecTimeS   float64
}

// fig3Scenarios are the six inter-application scenarios of Section 6.2:
// four two-application and two three-application sequences.
var fig3Scenarios = []string{
	"mpegdec-tachyon",
	"tachyon-mpegdec",
	"mpegenc-tachyon",
	"mpegenc-mpegdec",
	"mpegdec-tachyon-mpegenc",
	"tachyon-mpegenc-mpegdec",
}

// Fig3 reproduces the inter-application evaluation: thermal-cycling MTTF of
// {Linux ondemand, modified Ge et al. [7], Proposed} on six application
// sequences, normalized to Linux. The modified baseline receives explicit
// application-switch notifications; the proposed controller detects switches
// autonomously from its stress/aging moving averages. Learning-based
// policies are averaged over cfg.Repeats RL seeds to damp per-trajectory
// variance.
func Fig3(cfg Config) ([]Fig3Row, error) {
	scenarios := fig3Scenarios
	if cfg.Quick {
		scenarios = scenarios[:2]
	}
	policies := []string{PolicyLinuxOndemand, PolicyGeModified, PolicyProposed}
	var rows []Fig3Row
	for _, sc := range scenarios {
		var linux float64
		for _, pol := range policies {
			reps := cfg.repeats()
			if pol == PolicyLinuxOndemand {
				reps = 1 // deterministic
			}
			var mttfSum, execSum float64
			for rep := 0; rep < reps; rep++ {
				seq, err := scenarioApps(sc, workload.Set1)
				if err != nil {
					return nil, err
				}
				p, err := fig3Policy(pol, rep)
				if err != nil {
					return nil, err
				}
				// Rows need only scalars; stream them without the trace.
				rc := cfg.Run
				rc.DiscardTrace = true
				r, err := sim.Run(rc, seq, p)
				if err != nil {
					return nil, fmt.Errorf("fig3 %s/%s: %w", sc, pol, err)
				}
				mttfSum += r.CyclingMTTF
				execSum += r.ExecTimeS
			}
			mttf := mttfSum / float64(reps)
			if pol == PolicyLinuxOndemand {
				linux = mttf
			}
			norm := 0.0
			if linux > 0 {
				norm = mttf / linux
			}
			rows = append(rows, Fig3Row{
				Scenario:    sc,
				Policy:      pol,
				CyclingMTTF: mttf,
				Normalized:  norm,
				ExecTimeS:   execSum / float64(reps),
			})
		}
	}
	return rows, nil
}

// fig3Policy builds a policy with a per-repeat RL seed.
func fig3Policy(name string, rep int) (sim.Policy, error) {
	seed := int64(42 + 1000*rep)
	switch name {
	case PolicyProposed:
		ctl := core.DefaultConfig()
		ctl.Agent.Seed = seed
		return &sim.ProposedPolicy{Config: &ctl}, nil
	case PolicyGeModified:
		b := baseline.DefaultConfig()
		b.Agent.Seed = seed
		return &sim.GePolicy{Config: &b, Modified: true}, nil
	default:
		return policy.New(name, policy.Options{})
	}
}

// FormatFig3 renders the normalized thermal-cycling MTTF bars.
func FormatFig3(rows []Fig3Row) string {
	var sb strings.Builder
	sb.WriteString("Fig. 3 — inter-application thermal-cycling MTTF, normalized to Linux ondemand\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "scenario\tpolicy\tcycling MTTF (y)\tnormalized")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2fx\n", r.Scenario, r.Policy, r.CyclingMTTF, r.Normalized)
	}
	w.Flush()
	return sb.String()
}
