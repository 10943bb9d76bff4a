package thermal

import (
	"math"
	"testing"
)

// fixedPowerProfile returns a deterministic, time-varying per-node power
// vector exercising heating, cooling and imbalance across cores.
func fixedPowerProfile(fp *Floorplan, step int, dst []float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	for i, c := range fp.Cores {
		w := 2.0 + 6.0*math.Abs(math.Sin(float64(step)/50*(1+float64(i)/4)))
		if (step/200)%2 == 1 && i%2 == 0 {
			w *= 0.25 // periodic cooling phases on even cores
		}
		dst[c] = w
	}
	return dst
}

// TestFixedStepperMatchesImplicit drives the FixedStepper and the
// ImplicitSolver through the same power profile and requires agreement to
// tight tolerance on every node at every step, on both the quad-core and a
// 4x4 manycore floorplan.
func TestFixedStepperMatchesImplicit(t *testing.T) {
	for _, grid := range [][2]int{{2, 2}, {4, 4}} {
		fp := GridFloorplan(grid[0], grid[1], DefaultFloorplanConfig())
		const dt = 0.01
		fast, err := NewFixedStepper(fp.Net, dt)
		if err != nil {
			t.Fatalf("%dx%d: NewFixedStepper: %v", grid[0], grid[1], err)
		}
		ref := NewImplicitSolver(fp.Net)
		p := make([]float64, fp.Net.NumNodes())
		for step := 0; step < 5000; step++ {
			fixedPowerProfile(fp, step, p)
			if err := fast.Step(dt, p); err != nil {
				t.Fatalf("fast step %d: %v", step, err)
			}
			if err := ref.Step(dt, p); err != nil {
				t.Fatalf("ref step %d: %v", step, err)
			}
			for i := range p {
				got, want := fast.Temperature(i), ref.Temperature(i)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%dx%d step %d node %d: fixed %.12f vs implicit %.12f",
						grid[0], grid[1], step, i, got, want)
				}
			}
		}
	}
}

// TestFixedStepperBitIdenticalRepeat requires two runs from the same initial
// state to produce bit-identical temperatures (seed reproducibility depends
// on it).
func TestFixedStepperBitIdenticalRepeat(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	const dt = 0.01
	run := func() []float64 {
		s, err := NewFixedStepper(fp.Net, dt)
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, fp.Net.NumNodes())
		for step := 0; step < 2000; step++ {
			fixedPowerProfile(fp, step, p)
			if err := s.Step(dt, p); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float64, len(s.Temperatures()))
		copy(out, s.Temperatures())
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: run 1 %x vs run 2 %x not bit-identical", i, a[i], b[i])
		}
	}
}

// TestFixedStepperStepErrors covers the argument validation of Step and the
// constructor.
// TestFixedStepperCoreKernelBitIdentical drives the quad-core stepper with
// power at the cores only, which Step routes to the kernel that skips the
// zero spreader and sink terms, next to a stepper forced through the full
// kernel, and requires every node temperature to agree bit for bit.
func TestFixedStepperCoreKernelBitIdentical(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	if fp.Spreader != 4 || fp.Sink != 5 {
		t.Fatalf("package nodes at %d, %d; the kernel assumes 4, 5", fp.Spreader, fp.Sink)
	}
	cores, err := NewFixedStepper(fp.Net, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewFixedStepper(fp.Net, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, fp.Net.NumNodes())
	for step := 0; step < 5000; step++ {
		fixedPowerProfile(fp, step, p)
		if err := cores.Step(0.01, p); err != nil {
			t.Fatal(err)
		}
		full.step6((*[6]float64)(p))
		for i, v := range cores.Temperatures() {
			if math.Float64bits(v) != math.Float64bits(full.temps[i]) {
				t.Fatalf("step %d node %d: core kernel %.17g, full kernel %.17g", step, i, v, full.temps[i])
			}
		}
	}
}

func TestFixedStepperStepErrors(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	s, err := NewFixedStepper(fp.Net, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, fp.Net.NumNodes())
	if err := s.Step(0.02, p); err == nil {
		t.Error("Step with mismatched dt should fail")
	}
	if err := s.Step(0.01, p[:2]); err == nil {
		t.Error("Step with short power vector should fail")
	}
	if _, err := NewFixedStepper(fp.Net, 0); err == nil {
		t.Error("NewFixedStepper with dt=0 should fail")
	}
	if _, err := NewFixedStepper(NewNetwork(30), 0.01); err == nil {
		t.Error("NewFixedStepper on an empty network should fail")
	}
	if err := s.SetTemperatures(p[:2]); err == nil {
		t.Error("SetTemperatures with wrong length should fail")
	}
}

// TestFixedStepperSteadyState checks the precomputed update converges to the
// same equilibrium as the network's direct steady-state solve.
func TestFixedStepperSteadyState(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	s, err := NewFixedStepper(fp.Net, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, fp.Net.NumNodes())
	for _, c := range fp.Cores {
		p[c] = 8.0
	}
	want, err := fp.Net.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40000; step++ {
		if err := s.Step(0.05, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if math.Abs(s.Temperature(i)-want[i]) > 1e-6 {
			t.Errorf("node %d: fixed-step equilibrium %.9f, steady state %.9f", i, s.Temperature(i), want[i])
		}
	}
}

// TestFixedStepperStepAllocFree asserts the steady-state step performs zero
// allocations.
func TestFixedStepperStepAllocFree(t *testing.T) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	s, err := NewFixedStepper(fp.Net, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, fp.Net.NumNodes())
	for _, c := range fp.Cores {
		p[c] = 5
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Step(0.01, p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("FixedStepper.Step allocates %.1f objects per step, want 0", allocs)
	}
}

// BenchmarkFixedStep compares one precomputed constant-dt step against the
// reference integrators on the quad-core network.
func BenchmarkFixedStep(b *testing.B) {
	fp := QuadCoreFloorplan(DefaultFloorplanConfig())
	p := make([]float64, fp.Net.NumNodes())
	for _, c := range fp.Cores {
		p[c] = 6
	}
	const dt = 0.01
	b.Run("fixed", func(b *testing.B) {
		s, err := NewFixedStepper(fp.Net, dt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(dt, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("euler", func(b *testing.B) {
		s := NewSolver(fp.Net, Euler)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(dt, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("implicit", func(b *testing.B) {
		s := NewImplicitSolver(fp.Net)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(dt, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
