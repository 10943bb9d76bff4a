package sim

import (
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/workload"
)

// lightApp builds a small application so runs stay fast in tests.
func lightApp() *workload.Application {
	sp := workload.TachyonSpec(workload.Set3)
	sp.Iterations = 8
	return sp.Generate()
}

func TestRunCompletesAndCollects(t *testing.T) {
	res, err := Run(DefaultRunConfig(), lightApp(), LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTimeS <= 0 {
		t.Error("no simulated time elapsed")
	}
	if res.Trace.Len() == 0 {
		t.Error("no trace recorded")
	}
	if res.AvgTempC <= 25 || res.AvgTempC > 100 {
		t.Errorf("implausible average temperature %g", res.AvgTempC)
	}
	if res.PeakTempC < res.AvgTempC {
		t.Error("peak below average")
	}
	if res.DynamicEnergyJ <= 0 || res.StaticEnergyJ <= 0 {
		t.Error("energies must be positive")
	}
	if res.CyclingMTTF <= 0 || res.AgingMTTF <= 0 {
		t.Error("MTTFs must be positive")
	}
	if res.Policy != "linux-ondemand" {
		t.Errorf("policy name = %q", res.Policy)
	}
	if res.Workload != "tachyon" {
		t.Errorf("workload name = %q", res.Workload)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.RecordIntervalS = 0
	if _, err := Run(cfg, lightApp(), LinuxPolicy{}); err == nil {
		t.Error("expected error for zero record interval")
	}
}

func TestRunMaxSimGuard(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.MaxSimS = 1 // far too short
	if _, err := Run(cfg, lightApp(), LinuxPolicy{Kind: governor.Powersave}); err == nil {
		t.Error("expected max-sim-time error")
	}
}

func TestLinuxPolicyNames(t *testing.T) {
	if (LinuxPolicy{Kind: governor.Ondemand}).Name() != "linux-ondemand" {
		t.Error("ondemand name wrong")
	}
	if (LinuxPolicy{Kind: governor.Userspace, Level: 2}).Name() != "linux-userspace[2]" {
		t.Error("userspace name wrong")
	}
	if (LinuxPolicy{Label: "custom"}).Name() != "custom" {
		t.Error("label override ignored")
	}
}

func TestGePolicyLifecycle(t *testing.T) {
	g := &GePolicy{}
	if g.Name() != "ge-qiu" {
		t.Errorf("name = %q", g.Name())
	}
	if g.Controller() != nil {
		t.Error("controller should be nil before Attach")
	}
	res, err := Run(DefaultRunConfig(), lightApp(), g)
	if err != nil {
		t.Fatal(err)
	}
	if g.Controller() == nil {
		t.Error("controller missing after run")
	}
	if res.Policy != "ge-qiu" {
		t.Errorf("result policy = %q", res.Policy)
	}
	if (&GePolicy{Modified: true}).Name() != "ge-qiu-modified" {
		t.Error("modified name wrong")
	}
}

func TestProposedPolicyLifecycle(t *testing.T) {
	pp := &ProposedPolicy{History: true}
	if pp.Name() != "proposed" {
		t.Errorf("name = %q", pp.Name())
	}
	res, err := Run(DefaultRunConfig(), lightApp(), pp)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Controller() == nil {
		t.Error("controller missing after run")
	}
	if res.Policy != "proposed" {
		t.Errorf("result policy = %q", res.Policy)
	}
}

func TestFixedAffinityPolicy(t *testing.T) {
	f := &FixedAffinityPolicy{Slots: []int{0, 1, 2, 3, 0, 1}, Kind: governor.Ondemand}
	res, err := Run(DefaultRunConfig(), lightApp(), f)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTimeS <= 0 {
		t.Error("run did not execute")
	}
}

func TestFixedAffinityPolicyValidation(t *testing.T) {
	f := &FixedAffinityPolicy{Kind: governor.Ondemand} // no slots
	if _, err := Run(DefaultRunConfig(), lightApp(), f); err == nil {
		t.Error("expected error for empty slots")
	}
}

func TestFixedAffinityReappliesOnSwitch(t *testing.T) {
	mk := func() *workload.Application {
		sp := workload.MPEGDecSpec(workload.Set3)
		sp.Iterations = 6
		return sp.Generate()
	}
	seq := workload.NewSequence(mk(), mk())
	f := &FixedAffinityPolicy{Slots: []int{0, 0, 0, 0, 0, 0}, Kind: governor.Ondemand}
	res, err := Run(DefaultRunConfig(), seq, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppSwitches != 1 {
		t.Errorf("AppSwitches = %d, want 1", res.AppSwitches)
	}
	// All work on one core: execution must be much slower than spread.
	spread, err := Run(DefaultRunConfig(), func() workload.Workload {
		return workload.NewSequence(mk(), mk())
	}(), LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTimeS <= spread.ExecTimeS {
		t.Errorf("single-core pin (%g s) should be slower than balanced (%g s)", res.ExecTimeS, spread.ExecTimeS)
	}
}

// Reproducibility: identical configuration yields identical results.
func TestRunDeterministic(t *testing.T) {
	r1, err := Run(DefaultRunConfig(), lightApp(), LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(DefaultRunConfig(), lightApp(), LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecTimeS != r2.ExecTimeS || r1.AvgTempC != r2.AvgTempC || r1.DynamicEnergyJ != r2.DynamicEnergyJ {
		t.Error("identical runs diverged; simulation must be deterministic")
	}
}

func TestResultCombinedMTTF(t *testing.T) {
	res, err := Run(DefaultRunConfig(), lightApp(), LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		t.Fatal(err)
	}
	if res.CombinedMTTF <= 0 {
		t.Fatal("combined MTTF must be positive")
	}
	if res.CombinedMTTF > math.Min(res.CyclingMTTF, res.AgingMTTF) {
		t.Errorf("SOFR combined MTTF %g exceeds weakest mechanism (cyc %g, age %g)",
			res.CombinedMTTF, res.CyclingMTTF, res.AgingMTTF)
	}
}

func BenchmarkSimRunLinux(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(DefaultRunConfig(), lightApp(), LinuxPolicy{Kind: governor.Ondemand}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimRunProposed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(DefaultRunConfig(), lightApp(), &ProposedPolicy{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestThrottlePolicyReacts(t *testing.T) {
	// A hot workload must trip the throttle.
	sp := workload.TachyonSpec(workload.Set1)
	sp.Iterations = 12
	pol := DefaultThrottlePolicy()
	pol.TripC = 55 // low trip point so the test trips quickly
	res, err := Run(DefaultRunConfig(), sp.Generate(), pol)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Throttles() == 0 {
		t.Error("hot workload never tripped the throttle")
	}
	// The throttle caps the peak relative to an unmanaged run.
	free, err := Run(DefaultRunConfig(), func() workload.Workload {
		sp := workload.TachyonSpec(workload.Set1)
		sp.Iterations = 12
		return sp.Generate()
	}(), LinuxPolicy{Kind: governor.Performance})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakTempC >= free.PeakTempC {
		t.Errorf("throttled peak %.1f >= unmanaged peak %.1f", res.PeakTempC, free.PeakTempC)
	}
}

func TestThrottlePolicyValidation(t *testing.T) {
	bad := &ThrottlePolicy{TripC: 0, PollIntervalS: 1}
	if _, err := Run(DefaultRunConfig(), lightApp(), bad); err == nil {
		t.Error("expected error for bad trip point")
	}
}

func TestThrottlePolicyName(t *testing.T) {
	if DefaultThrottlePolicy().Name() != "reactive-throttle" {
		t.Error("name wrong")
	}
}

func TestPowerTraceRecorded(t *testing.T) {
	res, err := Run(DefaultRunConfig(), lightApp(), LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerTrace == nil || res.PowerTrace.Len() != res.Trace.Len() {
		t.Fatal("power trace missing or misaligned with the thermal trace")
	}
	// Power must be positive once running and consistent with the meter's
	// average (sampled vs integrated, so only roughly).
	avg := res.PowerTrace.AverageTemperature() // grand mean works for any MultiTrace
	if avg <= 0 {
		t.Error("power trace empty")
	}
	meterAvg := (res.DynamicEnergyJ + res.StaticEnergyJ) / res.ExecTimeS / float64(len(res.PowerTrace.Cores))
	if avg < meterAvg*0.5 || avg > meterAvg*2 {
		t.Errorf("sampled per-core power %.2f W inconsistent with metered %.2f W", avg, meterAvg)
	}
}
