package platform

import (
	"math"
	"testing"

	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/workload"
)

// TestPlatformEnergyBalance pins a constant-activity workload at one
// userspace level and runs it to thermal steady state, where the power the
// cores draw must leave the chip through the ambient conductances: summed
// CorePower equals sum_i Gamb_i*(T_i - Tamb) over every network node.
func TestPlatformEnergyBalance(t *testing.T) {
	for _, level := range []int{0, 2, 4} {
		p := New(DefaultConfig(), testApp(1e12))
		p.SetGovernorAll(governor.Userspace, level)
		// Ten minutes of simulated time is over ten times the slowest
		// (heat-sink) time constant.
		for i := 0; i < 60000; i++ {
			p.Step()
		}
		var in float64
		for _, w := range p.CorePower() {
			in += w
		}
		net := p.fp.Net
		var out float64
		for i, temp := range p.solver.Temperatures() {
			out += net.AmbientConductance(i) * (temp - net.Ambient())
		}
		if rel := math.Abs(in-out) / in; rel > 0.005 {
			t.Errorf("level %d: cores draw %.4f W, %.4f W reaches ambient (%.2f%% apart)", level, in, out, 100*rel)
		}
	}
}

// TestPlatformStepAllocFree runs the tick through governor decisions, load
// balancer runs, barrier releases and the scheduler's steady windows of one
// application and requires it to allocate nothing.
func TestPlatformStepAllocFree(t *testing.T) {
	sp := workload.MPEGDecSpec(workload.Set2)
	sp.Iterations = 400
	app := sp.Generate()
	p := New(DefaultConfig(), app)
	// Past the initial placement and the ondemand ramp.
	for i := 0; i < 500; i++ {
		p.Step()
	}
	phase, transitions := app.Threads()[0].PhaseIndex(), p.DVFSTransitions()
	// AllocsPerRun calls the function once to warm up and then once more
	// measured, so a single allocation anywhere in the measured ticks shows.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 5000; i++ {
			p.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("5000 platform ticks allocated %v times", allocs)
	}
	if app.Done() {
		t.Fatal("workload finished inside the measured ticks")
	}
	if crossed := app.Threads()[0].PhaseIndex() - phase; crossed < 4 {
		t.Errorf("thread 0 crossed %d phases in the measured ticks, want barrier releases", crossed)
	}
	if p.DVFSTransitions() == transitions {
		t.Error("no governor changed a level in the measured ticks")
	}
}

// TestLevelChangeAtSameFrequencyUpdatesPower switches every core between two
// operating points that share a frequency, so the scheduler's steady window
// survives the switch, and checks that each tick meters the dynamic power of
// the level in force rather than the last full tick's.
func TestLevelChangeAtSameFrequencyUpdatesPower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Levels = []power.Level{{FrequencyGHz: 2.0, VoltageV: 0.85}, {FrequencyGHz: 2.0, VoltageV: 1.1}}
	p := New(cfg, testApp(1e12))
	p.SetGovernorAll(governor.Userspace, 0)
	for i := 0; i < 100; i++ {
		p.Step()
	}
	for i := 0; i < 200; i++ {
		level := i % 2
		for c := 0; c < p.NumCores(); c++ {
			if err := p.SetCoreLevel(c, level); err != nil {
				t.Fatal(err)
			}
		}
		before := p.Meter().DynamicEnergy()
		p.Step()
		got := (p.Meter().DynamicEnergy() - before) / cfg.TickS
		v := cfg.Levels[level].VoltageV
		want := float64(p.NumCores()) * cfg.Power.Ceff * v * v * cfg.Levels[level].FrequencyGHz * 0.95
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("tick %d at level %d: dynamic power %.9f W, want %.9f W", i, level, got, want)
		}
	}
}
