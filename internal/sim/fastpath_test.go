package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/reliability"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/workload"
)

// manycoreApp builds a small workload with one thread per core for the
// 16-core golden run.
func manycoreApp(threads int) *workload.Application {
	ths := make([]*workload.Thread, threads)
	for i := range ths {
		ths[i] = workload.NewThread(i, "golden16", []workload.Phase{
			{Kind: workload.Burst, Work: 20 + float64(i), Activity: 0.85},
			{Kind: workload.Sync, Work: 2, Activity: 0.3},
			{Kind: workload.Burst, Work: 15, Activity: 0.9},
		})
	}
	return workload.NewApplication("golden16", ths, 0)
}

// implicitPlatform builds the platform platform.New would, but driven by the
// backward-Euler reference thermal.ImplicitSolver instead of the precomputed
// FixedStepper.
func implicitPlatform(cfg platform.Config, work workload.Workload) *platform.Platform {
	rows, cols := platform.GridDims(cfg)
	fp := thermal.GridFloorplan(rows, cols, cfg.Floorplan)
	return platform.NewWithStepper(cfg, work, thermal.NewImplicitSolver(fp.Net))
}

// TestGoldenFixedMatchesImplicit runs the same full simulation under the
// precomputed FixedStepper and under the reference ImplicitSolver and
// requires every temperature sample of every core to agree within 1e-6 C,
// for both the paper's quad-core and a 16-core grid. This is the
// whole-system guarantee that the fast integrator does not change
// experiment outputs.
func TestGoldenFixedMatchesImplicit(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		app        func() *workload.Application
	}{
		{"4core", 0, 0, lightApp},
		{"16core", 4, 4, func() *workload.Application { return manycoreApp(16) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runOn := func(newPlatform func(platform.Config, workload.Workload) *platform.Platform) *Result {
				cfg := DefaultRunConfig()
				if tc.rows > 0 {
					cfg.Platform.GridRows, cfg.Platform.GridCols = tc.rows, tc.cols
					cfg.Platform.Sched.NumCores = tc.rows * tc.cols
				}
				res, err := run(cfg, tc.app(), LinuxPolicy{Kind: governor.Ondemand}, newPlatform)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fixed := runOn(platform.New)
			ref := runOn(implicitPlatform)
			if fixed.Trace.Len() != ref.Trace.Len() {
				t.Fatalf("trace lengths differ: fixed %d vs implicit %d", fixed.Trace.Len(), ref.Trace.Len())
			}
			worst := 0.0
			for c := range fixed.Trace.Cores {
				fv := fixed.Trace.Cores[c].Values
				rv := ref.Trace.Cores[c].Values
				for i := range fv {
					if d := math.Abs(fv[i] - rv[i]); d > worst {
						worst = d
						if d > 1e-6 {
							t.Fatalf("core %d sample %d: fixed %.9f vs implicit %.9f (diff %.3g C)",
								c, i, fv[i], rv[i], d)
						}
					}
				}
			}
			t.Logf("%s: worst per-sample deviation %.3g C over %d samples", tc.name, worst, fixed.Trace.Len())
		})
	}
}

// TestDiscardTraceMatchesRetained requires DiscardTrace to drop the traces
// and change nothing else: every scalar metric equals the retained-trace
// run's bit for bit.
func TestDiscardTraceMatchesRetained(t *testing.T) {
	run := func(discard bool) *Result {
		cfg := DefaultRunConfig()
		cfg.DiscardTrace = discard
		res, err := Run(cfg, lightApp(), LinuxPolicy{Kind: governor.Ondemand})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(false)
	slim := run(true)
	if slim.Trace != nil || slim.PowerTrace != nil {
		t.Error("DiscardTrace retained a trace")
	}
	if full.Trace == nil || full.Trace.Len() == 0 {
		t.Fatal("retained run has no trace")
	}
	checks := map[string][2]float64{
		"ExecTimeS":    {full.ExecTimeS, slim.ExecTimeS},
		"AvgTempC":     {full.AvgTempC, slim.AvgTempC},
		"PeakTempC":    {full.PeakTempC, slim.PeakTempC},
		"CyclingMTTF":  {full.CyclingMTTF, slim.CyclingMTTF},
		"AgingMTTF":    {full.AgingMTTF, slim.AgingMTTF},
		"CombinedMTTF": {full.CombinedMTTF, slim.CombinedMTTF},
	}
	for name, v := range checks {
		if v[0] != v[1] {
			t.Errorf("%s: retained %.17g vs streaming %.17g", name, v[0], v[1])
		}
	}
}

// TestMetricsMatchBatchReference recomputes each run's thermal metrics from
// its retained trace with the batch reliability functions — over the samples
// past the warmup cut, which drops the first WarmupSkipS seconds only when the
// trace holds more than skip+10 samples — and requires the streaming
// collector's values bit for bit. The cases cover a run the cut trims, a run
// too short to trim, and a learner whose damage attribution is armed on the
// same collector.
func TestMetricsMatchBatchReference(t *testing.T) {
	cases := []struct {
		name   string
		skipS  float64
		policy func() Policy
		cut    bool
	}{
		{"warmup-cut", 5, func() Policy { return LinuxPolicy{Kind: governor.Ondemand} }, true},
		{"short-run", 45, func() Policy { return LinuxPolicy{Kind: governor.Ondemand} }, false},
		{"learning-attribution", 5, func() Policy { return &ProposedPolicy{} }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultRunConfig()
			cfg.WarmupSkipS = tc.skipS
			res, curve := runLearning(t, cfg, tc.policy())
			if _, learns := tc.policy().(LearningAttacher); learns && curve == nil {
				t.Fatal("learner never reached the observer")
			}
			skip := int(cfg.WarmupSkipS / res.Trace.IntervalS)
			if cut := res.Trace.Len() > skip+10; cut != tc.cut {
				t.Fatalf("%d samples with skip %d: cut engaged = %v, want %v", res.Trace.Len(), skip, cut, tc.cut)
			}
			var sum float64
			var n int
			peak := math.Inf(-1)
			cycling, aging := math.Inf(1), math.Inf(1)
			stress := make([]float64, len(res.Trace.Cores))
			for c, s := range res.Trace.Cores {
				vals := s.Values
				if tc.cut {
					vals = vals[skip:]
				}
				var cs float64
				for _, v := range vals {
					cs += v
					peak = max(peak, v)
				}
				sum += cs
				n += len(vals)
				stress[c] = cfg.Cycling.ThermalStress(reliability.Rainflow(vals))
				cycling = min(cycling, cfg.Cycling.CyclingMTTFFromStress(stress[c], float64(len(vals))*res.Trace.IntervalS))
				aging = min(aging, cfg.Aging.AgingMTTFFromSeries(vals))
			}
			checks := map[string][2]float64{
				"AvgTempC":    {sum / float64(n), res.AvgTempC},
				"PeakTempC":   {peak, res.PeakTempC},
				"CyclingMTTF": {cycling, res.CyclingMTTF},
				"AgingMTTF":   {aging, res.AgingMTTF},
			}
			if len(res.CoreCyclingStress) != len(stress) {
				t.Fatalf("CoreCyclingStress has %d cores, want %d", len(res.CoreCyclingStress), len(stress))
			}
			for c, v := range stress {
				checks[fmt.Sprintf("CoreCyclingStress[%d]", c)] = [2]float64{v, res.CoreCyclingStress[c]}
			}
			for name, v := range checks {
				if v[0] != v[1] {
					t.Errorf("%s: batch reference %.17g vs collector %.17g", name, v[0], v[1])
				}
			}
		})
	}
}

// TestSteadyStateLoopAllocFree asserts the per-sample hot path — one thermal
// step, one pre-sized trace append, one streaming rainflow push per core —
// performs zero allocations.
func TestSteadyStateLoopAllocFree(t *testing.T) {
	fp := thermal.QuadCoreFloorplan(thermal.DefaultFloorplanConfig())
	stepper, err := thermal.NewFixedStepper(fp.Net, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 2000
	mt := trace.NewMultiTraceCap(len(fp.Cores), 0.25, iters+8)
	accs := make([]*reliability.MTTFAccumulator, len(fp.Cores))
	for i := range accs {
		accs[i] = reliability.NewMTTFAccumulator(reliability.DefaultCyclingParams(), reliability.DefaultAgingParams())
	}
	p := make([]float64, fp.Net.NumNodes())
	temps := make([]float64, len(fp.Cores))
	// Warm up so the rainflow stacks reach steady state.
	step := func(i int) {
		for c, node := range fp.Cores {
			p[node] = 8 + 3*math.Sin(float64(i)/17+float64(c))
		}
		if err := stepper.Step(0.01, p); err != nil {
			t.Fatal(err)
		}
		fp.CoreTemperatures(temps, stepper.Temperatures())
		mt.Append(temps)
		for c, v := range temps {
			accs[c].Push(v)
		}
	}
	for i := 0; i < 200; i++ {
		step(i)
	}
	i := 200
	allocs := testing.AllocsPerRun(iters-300, func() {
		step(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state loop allocated %.2f times per sample", allocs)
	}
}

// TestConcurrentRunsBitIdentical runs the same cell in two concurrent
// workers (as the service pool does) and serially, and requires bit-identical
// results — the guard for the pooled buffer-reuse changes: no scratch state
// may leak between platforms.
func TestConcurrentRunsBitIdentical(t *testing.T) {
	runOnce := func() *Result {
		cfg := DefaultRunConfig()
		cfg.DiscardTrace = true
		res, err := Run(cfg, lightApp(), LinuxPolicy{Kind: governor.Ondemand})
		if err != nil {
			t.Error(err)
			return nil
		}
		return res
	}
	serial := runOnce()
	if serial == nil {
		t.Fatal("serial run failed")
	}
	results := make([]*Result, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runOnce()
		}(w)
	}
	wg.Wait()
	for w, r := range results {
		if r == nil {
			t.Fatalf("worker %d failed", w)
		}
		if r.ExecTimeS != serial.ExecTimeS || r.AvgTempC != serial.AvgTempC ||
			r.PeakTempC != serial.PeakTempC || r.CyclingMTTF != serial.CyclingMTTF ||
			r.AgingMTTF != serial.AgingMTTF || r.DynamicEnergyJ != serial.DynamicEnergyJ ||
			r.Migrations != serial.Migrations {
			t.Errorf("worker %d diverged from serial run: %+v vs %+v", w, r, serial)
		}
	}
}
