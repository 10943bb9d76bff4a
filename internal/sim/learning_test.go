package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/governor"
	"repro/internal/rl"
)

// runLearning runs lightApp under the given policy with learning-curve
// sampling armed and returns the result plus the finished curve (nil if the
// policy never attached a sampler).
func runLearning(t *testing.T, cfg RunConfig, pol Policy) (*Result, *rl.RunCurve) {
	t.Helper()
	var got *rl.RunCurve
	cfg.LearningObserver = func(s rl.RunCurve, _ Policy) {
		if s.Policy != pol.Name() {
			t.Errorf("observer saw policy %q, want %q", s.Policy, pol.Name())
		}
		got = &s
	}
	res, err := Run(cfg, lightApp(), pol)
	if err != nil {
		t.Fatal(err)
	}
	return res, got
}

// TestLearningSamplerCapturesCurve: arming the observer on the proposed
// policy yields a non-empty curve whose per-core damage attribution matches
// the run's own CoreCyclingStress exactly — every closed thermal cycle is
// charged to some decision.
func TestLearningSamplerCapturesCurve(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.DiscardTrace = true
	res, s := runLearning(t, cfg, &ProposedPolicy{})
	if s == nil {
		t.Fatal("proposed policy did not attach a learning sampler")
	}
	pts := s.Points
	if len(pts) == 0 {
		t.Fatal("sampler recorded no epochs")
	}
	sum := s.Summary
	if sum.Epochs != len(pts) {
		t.Errorf("summary epochs %d != %d points", sum.Epochs, len(pts))
	}
	if sum.Coverage <= 0 || sum.Coverage > 1 {
		t.Errorf("coverage %v out of (0,1]", sum.Coverage)
	}
	if len(res.CoreCyclingStress) == 0 {
		t.Fatal("result carries no per-core cycling stress")
	}
	if !reflect.DeepEqual(sum.CoreDamage, res.CoreCyclingStress) {
		t.Errorf("attributed damage %v != core cycling stress %v",
			sum.CoreDamage, res.CoreCyclingStress)
	}
	var shares float64
	for _, v := range res.CoreDamageShare {
		shares += v
	}
	if shares != 0 && math.Abs(shares-1) > 1e-9 {
		t.Errorf("damage shares sum to %v, want 1 (or all zeros)", shares)
	}
	var attributed float64
	for _, v := range sum.ActionDamage {
		attributed += v
	}
	var total float64
	for _, v := range sum.CoreDamage {
		total += v
	}
	if math.Abs(attributed-total) > 1e-9*math.Max(1, total) {
		t.Errorf("per-action damage %v does not account for per-core total %v",
			attributed, total)
	}
}

// TestLearningSamplingIsObservationOnly pins the bit-identity guarantee:
// the same seed-fixed run with and without the observer produces identical
// results (sampling must not perturb the policy's RNG or the metric
// pipeline), in both the retained-trace and streaming paths.
func TestLearningSamplingIsObservationOnly(t *testing.T) {
	for _, discard := range []bool{false, true} {
		cfg := DefaultRunConfig()
		cfg.DiscardTrace = discard
		plain, err := Run(cfg, lightApp(), &ProposedPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		sampled, s := runLearning(t, cfg, &ProposedPolicy{})
		if s == nil {
			t.Fatal("sampler not attached")
		}
		// Traces are pointers; compare everything else bit-for-bit via
		// the JSON encoding (shortest-form float64 is exact).
		plain.Trace, plain.PowerTrace = nil, nil
		sampled.Trace, sampled.PowerTrace = nil, nil
		j1, _ := json.Marshal(plain)
		j2, _ := json.Marshal(sampled)
		if string(j1) != string(j2) {
			t.Errorf("discard=%v: sampling changed the result:\n%s\n%s", discard, j1, j2)
		}
	}
}

// TestLearningStressIdenticalAcrossTracePaths: CoreCyclingStress, the shares
// derived from it and the attributed damage are bit-identical whether the
// trace is kept or discarded.
func TestLearningStressIdenticalAcrossTracePaths(t *testing.T) {
	retained := DefaultRunConfig()
	streaming := DefaultRunConfig()
	streaming.DiscardTrace = true
	r1, s1 := runLearning(t, retained, &ProposedPolicy{})
	r2, s2 := runLearning(t, streaming, &ProposedPolicy{})
	if !reflect.DeepEqual(r1.CoreCyclingStress, r2.CoreCyclingStress) {
		t.Errorf("core stress differs across trace paths:\n%v\n%v",
			r1.CoreCyclingStress, r2.CoreCyclingStress)
	}
	if !reflect.DeepEqual(r1.CoreDamageShare, r2.CoreDamageShare) {
		t.Errorf("damage shares differ across trace paths:\n%v\n%v",
			r1.CoreDamageShare, r2.CoreDamageShare)
	}
	if !reflect.DeepEqual(s1.Summary.CoreDamage, s2.Summary.CoreDamage) {
		t.Errorf("attributed damage differs across trace paths:\n%v\n%v",
			s1.Summary.CoreDamage, s2.Summary.CoreDamage)
	}
}

// TestLearningObserverSkipsNonLearners: a policy without a learning agent
// never reaches the observer, but its result still carries the per-core
// damage surface.
func TestLearningObserverSkipsNonLearners(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.DiscardTrace = true
	called := false
	cfg.LearningObserver = func(rl.RunCurve, Policy) { called = true }
	res, err := Run(cfg, lightApp(), LinuxPolicy{Kind: governor.Ondemand})
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("observer fired for a non-learning policy")
	}
	if len(res.CoreCyclingStress) == 0 || len(res.CoreDamageShare) == 0 {
		t.Error("baseline run missing per-core damage surface")
	}
}
