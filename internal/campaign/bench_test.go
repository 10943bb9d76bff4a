package campaign

import (
	"context"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// simSteps reads the process-wide platform step counter.
func simSteps() int64 {
	v, _ := telemetry.Default().Value("sim_steps_total")
	return int64(v)
}

// BenchmarkTournamentCells is the campaign-cell rung of the benchmark
// ladder: one op plans the example tournament and runs its cells
// sequentially with a job's observation armed the way the service pool
// arms it (a span tracer with one cell span per run, whose epoch spans carry
// the decision events, sealed as each cell and the job end, and a
// learning-curve observer). A cell that shares another cell's run
// takes its row from that run, as both executors do. It reports the time
// per planned cell, which moves with perfbench's cpu_ms_per_cell, and per
// platform tick.
func BenchmarkTournamentCells(b *testing.B) {
	doc, err := os.ReadFile("../../examples/tournament/experiments.json")
	if err != nil {
		b.Fatal(err)
	}
	var cells, ticks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultConfig()
		cfg.CampaignJSON = doc
		curves := rl.NewCurveSet()
		cfg.Run.LearningObserver = func(c rl.RunCurve, _ sim.Policy) { curves.Add(c) }
		tracer := telemetry.NewTracer(0)
		plan, _, err := Cells(cfg, Experiment)
		if err != nil {
			b.Fatal(err)
		}
		job := tracer.Start(0, telemetry.KindJob, "bench")
		before := simSteps()
		rows := make([]any, len(plan))
		for j, c := range plan {
			if sh := c.Shares; sh != nil {
				rows[j], _ = experiments.SharedOutcome(plan, j, rows[sh.Cell], nil)
				continue
			}
			span := tracer.Start(job, telemetry.KindCell, c.Key)
			if rows[j], err = experiments.RunCell(telemetry.ContextWithSpan(context.Background(), tracer, span), c); err != nil {
				b.Fatal(err)
			}
			tracer.End(span)
			tracer.Seal()
		}
		tracer.End(job)
		tracer.Seal()
		ticks += simSteps() - before
		cells += int64(len(plan))
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(cells), "ns/cell")
	b.ReportMetric(ns/float64(ticks), "ns/tick")
}
