// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end to end on the
// simulated platform and reports, besides wall time, the headline metric of
// that artifact so `go test -bench=. -benchmem` doubles as a results run.
//
// Quick mode (reduced sweeps) keeps individual iterations in the tens of
// milliseconds; pass -tags or edit benchCfg for full-fidelity sweeps.
package main

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/service"
)

func benchCfg() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Quick = true
	return cfg
}

// BenchmarkFig1 regenerates the motivational experiment: affinity changes
// the thermal character of face recognition vs mpeg encoding.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				if row.App == "mpeg_enc" && row.Assignment == "fixed-affinity" {
					b.ReportMetric(row.CyclingMTTF, "mpegPinnedCycMTTF_y")
				}
			}
		}
	}
}

// BenchmarkTable2 regenerates the intra-application evaluation (Table 2) and
// reports the average aging-MTTF improvement of the proposed controller over
// Linux (the paper: ~2x average intra-application improvement).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Table2(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(agingImprovement(cells), "agingMTTFgain_x")
		}
	}
}

func agingImprovement(cells []experiments.Table2Cell) float64 {
	linux := map[string]float64{}
	var sum float64
	var n int
	for _, c := range cells {
		if c.Policy == experiments.PolicyLinuxOndemand {
			linux[c.App+c.DataSet.String()] = c.AgingMTTF
		}
	}
	for _, c := range cells {
		if c.Policy == experiments.PolicyProposed {
			if l := linux[c.App+c.DataSet.String()]; l > 0 {
				sum += c.AgingMTTF / l
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkFig3 regenerates the inter-application evaluation and reports the
// mean normalized cycling-MTTF gain of the proposed controller (the paper:
// ~5x vs Linux).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sum float64
			var n int
			for _, r := range rows {
				if r.Policy == experiments.PolicyProposed {
					sum += r.Normalized
					n++
				}
			}
			b.ReportMetric(sum/float64(n), "interAppCycGain_x")
		}
	}
}

// BenchmarkFig45 regenerates the learning-phase profiles and reports the
// exploitation-phase temperature reduction vs Linux.
func BenchmarkFig45(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig45(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.LinuxExploitAvgC-r.ProposedExploitAvgC, "exploitCooling_C")
		}
	}
}

// BenchmarkFig6 regenerates the sampling-interval sweep and reports the
// MTTF over-estimation factor of the coarsest interval vs the finest.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 1 {
			b.ReportMetric(rows[len(rows)-1].ComputedMTTF/rows[0].ComputedMTTF, "mttfOverestimate_x")
		}
	}
}

// BenchmarkFig7 regenerates the decision-epoch sweep and reports the
// learning-time growth from the smallest to the largest epoch.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 1 {
			b.ReportMetric(rows[len(rows)-1].NormLearningTime, "learnTimeGrowth_x")
		}
	}
}

// BenchmarkFig8 regenerates the convergence sweep and reports the iteration
// growth from the smallest to the largest Q-table.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(rows) > 1 {
			first, last := rows[0], rows[len(rows)-1]
			if first.Iterations > 0 {
				b.ReportMetric(float64(last.Iterations)/float64(first.Iterations), "iterGrowth_x")
			}
		}
	}
}

// BenchmarkTable3 regenerates the execution-time grid and reports the
// proposed controller's slowdown vs ondemand on tachyon (the paper: up to
// ~30%, average ~10%).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.PerfEnergyGrid(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var od, pr float64
			for _, c := range cells {
				if c.App == "tachyon" {
					switch c.Policy {
					case experiments.PolicyLinuxOndemand:
						od = c.ExecTimeS
					case experiments.PolicyProposed:
						pr = c.ExecTimeS
					}
				}
			}
			if od > 0 {
				b.ReportMetric(pr/od, "tachyonSlowdown_x")
			}
		}
	}
}

// BenchmarkFig9 regenerates the power/energy grid and reports the proposed
// controller's dynamic-power saving vs ondemand (the paper: ~6% power, with
// ~10% dynamic-energy saving vs the Ge baseline).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.PerfEnergyGrid(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var od, pr float64
			for _, c := range cells {
				if c.App == "tachyon" {
					switch c.Policy {
					case experiments.PolicyLinuxOndemand:
						od = c.AvgDynPowerW
					case experiments.PolicyProposed:
						pr = c.AvgDynPowerW
					}
				}
			}
			if od > 0 {
				b.ReportMetric(100*(1-pr/od), "dynPowerSaving_pct")
			}
		}
	}
}

// BenchmarkPooledSuite compares the sequential quick suite against the job
// service's pooled execution at 1, 2 and 4 workers. The pooled rows are
// bit-identical to the sequential ones (asserted by the service tests);
// this benchmark measures the wall-clock side of that trade.
func BenchmarkPooledSuite(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := experiments.Suite(context.Background(), benchCfg())
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			store := service.NewStore(0)
			pool := service.NewPool(store, workers)
			pool.Start()
			defer pool.Stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job, err := pool.Submit(service.Spec{Experiment: "suite", Quick: true})
				if err != nil {
					b.Fatal(err)
				}
				final, err := pool.Wait(context.Background(), job.ID)
				if err != nil {
					b.Fatal(err)
				}
				if final.State != service.StateDone {
					b.Fatalf("job finished %s: %s", final.State, final.Error)
				}
			}
		})
	}
}

// BenchmarkAblation runs the mechanism-removal study and reports the
// cycling-MTTF loss from ablating the paper's sampling/epoch separation
// (contribution 2) on tachyon.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var full, coupled float64
			for _, r := range rows {
				if r.Workload == "tachyon" {
					switch r.Variant {
					case "full":
						full = r.CyclingMTTF
					case "coupled-sampling":
						coupled = r.CyclingMTTF
					}
				}
			}
			if coupled > 0 {
				b.ReportMetric(full/coupled, "decoupledSamplingGain_x")
			}
		}
	}
}
