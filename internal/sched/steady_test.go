package sched

import (
	"testing"

	"repro/internal/workload"
)

// buildApp constructs a deterministic multi-phase application with barriers,
// fresh threads each call so two schedulers never share state.
func buildApp() *workload.Application {
	mk := func(id int) *workload.Thread {
		phases := []workload.Phase{
			{Kind: workload.Burst, Work: 3.0 + 0.7*float64(id), Activity: 0.9},
			{Kind: workload.Sync, Work: 0.5 + 0.1*float64(id), Activity: 0.3},
			{Kind: workload.Burst, Work: 4.0 - 0.5*float64(id), Activity: 0.8},
			{Kind: workload.Sync, Work: 0.8, Activity: 0.25},
			{Kind: workload.Burst, Work: 2.0 + 0.3*float64(id), Activity: 0.95},
		}
		return workload.NewThread(id, "steady-test", phases)
	}
	return workload.NewApplication("steady-test", []*workload.Thread{mk(0), mk(1), mk(2), mk(3), mk(4), mk(5)}, 0)
}

// freqPattern returns a DVFS-like frequency vector that changes every 10
// ticks (the governor cadence), exercising the fast path's frequency
// validation.
func freqPattern(step, cores int, dst []float64) []float64 {
	base := 1.6 + 0.4*float64((step/10)%4)
	for c := 0; c < cores; c++ {
		dst[c] = base + 0.2*float64(c%2)
	}
	return dst
}

// TestSteadyFastPathMatchesSlowPath drives two schedulers over identical
// workloads — one with the steady fast path enabled, one forced down the
// slow path — through phase boundaries, barriers, frequency changes, an
// affinity change and an injected stall, and requires bit-identical per-tick
// stats and final thread state.
func TestSteadyFastPathMatchesSlowPath(t *testing.T) {
	cfg := DefaultConfig()
	const dt = 0.01

	fast, slow := New(cfg), New(cfg)
	slow.disableSteady = true
	appF, appS := buildApp(), buildApp()
	fast.SetThreads(appF.Threads())
	slow.SetThreads(appS.Threads())

	freqF := make([]float64, cfg.NumCores)
	freqS := make([]float64, cfg.NumCores)
	for step := 0; step < 5000 && (!appF.Done() || !appS.Done()); step++ {
		freqPattern(step, cfg.NumCores, freqF)
		freqPattern(step, cfg.NumCores, freqS)
		if step == 777 {
			// Pin thread 2 to core 1 on both mid-run.
			if err := fast.SetAffinity(2, 1<<1); err != nil {
				t.Fatal(err)
			}
			if err := slow.SetAffinity(2, 1<<1); err != nil {
				t.Fatal(err)
			}
		}
		if step == 1500 {
			fast.AddStall(0, 0.05)
			slow.AddStall(0, 0.05)
		}
		sf := fast.Tick(dt, freqF)
		ss := slow.Tick(dt, freqS)
		if sf.WorkDone != ss.WorkDone {
			t.Fatalf("step %d: WorkDone fast %x vs slow %x", step, sf.WorkDone, ss.WorkDone)
		}
		for c := 0; c < cfg.NumCores; c++ {
			if sf.CoreActivity[c] != ss.CoreActivity[c] {
				t.Fatalf("step %d core %d: activity fast %x vs slow %x", step, c, sf.CoreActivity[c], ss.CoreActivity[c])
			}
			if sf.CoreBusy[c] != ss.CoreBusy[c] {
				t.Fatalf("step %d core %d: busy fast %v vs slow %v", step, c, sf.CoreBusy[c], ss.CoreBusy[c])
			}
		}
		// Barrier bookkeeping, exactly as the platform does it.
		appF.Step()
		appS.Step()
		for i := range appF.Threads() {
			tf, ts := appF.Threads()[i], appS.Threads()[i]
			if tf.CompletedWork() != ts.CompletedWork() {
				t.Fatalf("step %d thread %d: completed fast %x vs slow %x", step, i, tf.CompletedWork(), ts.CompletedWork())
			}
			if tf.PhaseIndex() != ts.PhaseIndex() {
				t.Fatalf("step %d thread %d: phase fast %d vs slow %d", step, i, tf.PhaseIndex(), ts.PhaseIndex())
			}
			if fast.Placement(i) != slow.Placement(i) {
				t.Fatalf("step %d thread %d: placement fast %d vs slow %d", step, i, fast.Placement(i), slow.Placement(i))
			}
		}
	}
	if !appF.Done() || !appS.Done() {
		t.Fatal("applications did not finish within the step budget")
	}
	if fast.Migrations() != slow.Migrations() {
		t.Fatalf("migrations fast %d vs slow %d", fast.Migrations(), slow.Migrations())
	}
}

// TestSteadyFastPathEngages sanity-checks that the fast path actually arms
// during a uniform workload (otherwise the equivalence test above would
// trivially pass by never taking it).
func TestSteadyFastPathEngages(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg)
	threads := []*workload.Thread{
		workload.NewThread(0, "x", []workload.Phase{{Kind: workload.Burst, Work: 1000, Activity: 0.9}}),
		workload.NewThread(1, "x", []workload.Phase{{Kind: workload.Burst, Work: 1000, Activity: 0.9}}),
	}
	s.SetThreads(threads)
	freq := []float64{2.4, 2.4, 2.4, 2.4}
	s.Tick(0.01, freq)
	if !s.steady {
		t.Fatal("fast path did not arm after a uniform tick")
	}
	armed := s.steadyLeft
	s.Tick(0.01, freq)
	if s.steadyLeft != armed-1 {
		t.Fatalf("fast tick did not consume the window: left %d, want %d", s.steadyLeft, armed-1)
	}
}

// TestTickReportsReplayed checks the Replayed flag the platform keys its
// reuse on: set on steady-window ticks only, cleared on a full tick, on a
// frequency change and on a window tick that falls back to the full advance
// because a thread reached its phase boundary.
func TestTickReportsReplayed(t *testing.T) {
	s := New(DefaultConfig())
	threads := []*workload.Thread{
		workload.NewThread(0, "x", []workload.Phase{{Kind: workload.Burst, Work: 1000, Activity: 0.9}, {Kind: workload.Burst, Work: 1000, Activity: 0.5}}),
		workload.NewThread(1, "x", []workload.Phase{{Kind: workload.Burst, Work: 1000, Activity: 0.9}}),
	}
	s.SetThreads(threads)
	freq := []float64{2.4, 2.4, 2.4, 2.4}
	tick := func(want bool, what string) {
		t.Helper()
		if got := s.Tick(0.01, freq).Replayed; got != want {
			t.Fatalf("%s: Replayed = %v, want %v", what, got, want)
		}
	}
	tick(false, "first tick")
	tick(true, "window tick")
	freq[1] = 2.8
	tick(false, "frequency change")
	tick(true, "window re-armed at the new frequency")
	// Leave thread 0 less than one tick of work in its phase: the window's
	// next advance crosses the boundary and must fall back.
	threads[0].Advance(threads[0].RemainingInPhase() - 1e-6)
	tick(false, "fallback at a phase boundary")
	if threads[0].PhaseIndex() != 1 {
		t.Fatalf("thread 0 in phase %d after the fallback, want 1", threads[0].PhaseIndex())
	}
	tick(false, "full tick after the fallback")
}
