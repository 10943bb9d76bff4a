package rl

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// stepEpoch drives one epoch with a fixed (state, action) visit so tests
// control the greedy policy purely through the Q-table contents.
func stepEpoch(s *LearningSampler, epoch int, q *QTable) {
	s.EndEpoch(epoch, float64(epoch), 0.5, 0.9, epoch%q.NumStates(), 0, q)
}

// TestLearningConvergesAtFirstEpoch: a greedy policy that never moves from
// the very first observation converges at epoch 1 (the earliest possible
// verdict) exactly when the stability window fills — one epoch earlier it is
// still undecided.
func TestLearningConvergesAtFirstEpoch(t *testing.T) {
	q := NewQTable(3, 2)
	q.Set(0, 1, 1) // fixed greedy: [1 0 0]

	s := NewLearningSampler(0)
	for epoch := 1; epoch <= DefaultConvergenceWindow-1; epoch++ {
		stepEpoch(s, epoch, q)
		if got := s.ConvergedEpoch(); got != -1 {
			t.Fatalf("converged at %d after %d stable epochs, want undecided (-1)", got, epoch)
		}
	}
	stepEpoch(s, DefaultConvergenceWindow, q)
	if got := s.ConvergedEpoch(); got != 1 {
		t.Fatalf("ConvergedEpoch() = %d, want 1", got)
	}
	if sum := s.Summary(); sum.ConvergeEpoch != 1 || sum.Epochs != DefaultConvergenceWindow {
		t.Fatalf("summary %+v, want converge_epoch 1 over %d epochs", sum, DefaultConvergenceWindow)
	}
}

// TestLearningNeverConverges: a greedy policy perturbed every epoch keeps the
// detector from ever firing, and the -1 verdict survives into the summary.
func TestLearningNeverConverges(t *testing.T) {
	q := NewQTable(3, 2)
	s := NewLearningSampler(0)
	for epoch := 1; epoch <= 6*DefaultConvergenceWindow; epoch++ {
		// Alternate state 0's argmax between action 0 and action 1.
		q.Set(0, 0, float64(1+epoch%2))
		q.Set(0, 1, float64(2-epoch%2))
		stepEpoch(s, epoch, q)
	}
	if got := s.ConvergedEpoch(); got != -1 {
		t.Fatalf("ConvergedEpoch() = %d, want -1 (never converged)", got)
	}
	if sum := s.Summary(); sum.ConvergeEpoch != -1 {
		t.Fatalf("summary converge_epoch = %d, want -1", sum.ConvergeEpoch)
	}
}

// TestLearningConvergesAfterLateChange: a greedy flip mid-run resets the
// stability window, so the verdict is the first epoch of the final stable
// stretch, not of the earlier false start.
func TestLearningConvergesAfterLateChange(t *testing.T) {
	q := NewQTable(3, 2)
	s := NewLearningSampler(0)
	flipAt := 5
	for epoch := 1; epoch < flipAt; epoch++ {
		stepEpoch(s, epoch, q)
	}
	q.Set(0, 1, 1) // greedy of state 0 flips from 0 to 1
	for epoch := flipAt; epoch < flipAt+DefaultConvergenceWindow; epoch++ {
		stepEpoch(s, epoch, q)
	}
	if got := s.ConvergedEpoch(); got != flipAt {
		t.Fatalf("ConvergedEpoch() = %d, want %d", got, flipAt)
	}
}

// TestLearningCurvePointContents pins what EndEpoch records: mean |TD| over
// the epoch's updates, pending damage folded into exactly one point, NaN
// rewards recorded as zero and excluded from the mean.
func TestLearningCurvePointContents(t *testing.T) {
	q := NewQTable(2, 2)
	s := NewLearningSampler(0)
	s.ObserveTD(0.5)
	s.ObserveTD(-1.5)
	s.ObserveTD(math.NaN()) // ignored
	s.ObserveCycleDamage(0, 1, 2.0)
	s.ObserveCycleDamage(1, 1, 1.0)
	s.EndEpoch(1, 10, math.NaN(), 0.87, 0, 1, q)
	s.EndEpoch(2, 20, 0.25, 0.76, 1, 0, q)

	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].AbsTD != 1.0 {
		t.Errorf("mean |TD| = %g, want 1", pts[0].AbsTD)
	}
	if pts[0].Damage != 3.0 || pts[1].Damage != 0 {
		t.Errorf("damage attribution: %g then %g, want 3 then 0", pts[0].Damage, pts[1].Damage)
	}
	if pts[0].Reward != 0 {
		t.Errorf("NaN reward recorded as %g, want 0", pts[0].Reward)
	}
	sum := s.Summary()
	if sum.MeanReward != 0.25 {
		t.Errorf("mean reward %g, want 0.25 (NaN epoch excluded)", sum.MeanReward)
	}
	if want := []float64{2, 1}; !reflect.DeepEqual(sum.CoreDamage, want) {
		t.Errorf("core damage %v, want %v", sum.CoreDamage, want)
	}
	if want := []float64{2.0 / 3.0, 1.0 / 3.0}; !reflect.DeepEqual(sum.CoreDamageShare, want) {
		t.Errorf("core damage share %v, want %v", sum.CoreDamageShare, want)
	}
	if want := []float64{0, 3}; !reflect.DeepEqual(sum.ActionDamage, want) {
		t.Errorf("action damage %v, want %v", sum.ActionDamage, want)
	}
}

// TestLearningSamplerDisabledZeroAlloc pins the nil-receiver contract: every
// sampler method on a disabled (nil) sampler is allocation-free, so policies
// can call them unconditionally on hot paths.
func TestLearningSamplerDisabledZeroAlloc(t *testing.T) {
	var s *LearningSampler
	q := NewQTable(4, 3)
	allocs := testing.AllocsPerRun(1000, func() {
		s.ObserveTD(0.5)
		s.ObserveCycleDamage(1, 2, 0.1)
		s.EndEpoch(1, 1.0, 0.5, 0.9, 0, 0, q)
		s.Finalize()
		_ = s.ConvergedEpoch()
	})
	if allocs != 0 {
		t.Fatalf("disabled sampler allocated %.1f per run, want 0", allocs)
	}
}

// TestLearningAgentObserveZeroAllocWithoutSampler pins the agent's hot path:
// Observe with no sampler attached stays allocation-free, so enabling the
// sampler machinery in the build costs nothing when sampling is off.
func TestLearningAgentObserveZeroAllocWithoutSampler(t *testing.T) {
	a := NewAgent(DefaultAgentConfig(4, 3))
	allocs := testing.AllocsPerRun(1000, func() {
		a.Observe(0, 1, 0.5, 2)
		a.EndEpoch()
	})
	if allocs != 0 {
		t.Fatalf("Observe without sampler allocated %.1f per run, want 0", allocs)
	}
}

// TestLearningAgentFeedsSampler: an attached sampler sees one TD error per
// Observe, without perturbing the agent's RNG stream (two agents with the
// same seed, one sampled and one not, select identical actions).
func TestLearningAgentFeedsSampler(t *testing.T) {
	sampled := NewAgent(DefaultAgentConfig(4, 3))
	plain := NewAgent(DefaultAgentConfig(4, 3))
	s := NewLearningSampler(0)
	sampled.AttachSampler(s)
	for i := 0; i < 50; i++ {
		st := i % 4
		as, ap := sampled.SelectAction(st), plain.SelectAction(st)
		if as != ap {
			t.Fatalf("epoch %d: sampled agent selected %d, plain %d — sampling perturbed the RNG", i, as, ap)
		}
		sampled.Observe(st, as, 0.1, (st+1)%4)
		plain.Observe(st, ap, 0.1, (st+1)%4)
		sampled.EndEpoch()
		plain.EndEpoch()
	}
	s.EndEpoch(1, 1, 0.1, sampled.Alpha(), 0, 0, sampled.Q())
	if pts := s.Points(); len(pts) != 1 || pts[0].AbsTD <= 0 {
		t.Fatalf("sampler saw no TD errors: %+v", pts)
	}
}

// TestCurveSetJSONLRoundTrip: the durable archive format reproduces the set
// exactly (shortest-form float64 JSON round-trips), in coordinate order.
func TestCurveSetJSONLRoundTrip(t *testing.T) {
	cs := NewCurveSet()
	cs.Add(RunCurve{Policy: "releta", Workload: "mpegdec", Seed: 2,
		Points:  []CurvePoint{{Epoch: 1, TimeS: 0.5, Reward: 1.0 / 3.0, AbsTD: 0.125, Alpha: 0.87}},
		Summary: CurveSummary{Epochs: 1, ConvergeEpoch: -1}})
	cs.Add(RunCurve{Policy: "proposed", Workload: "mpegdec", Seed: 1,
		Points:  []CurvePoint{{Epoch: 1}, {Epoch: 2, Damage: 0.25}},
		Summary: CurveSummary{Epochs: 2, ConvergeEpoch: 1, CoreDamage: []float64{0.25}, CoreDamageShare: []float64{1}}})

	var data bytes.Buffer
	if err := cs.WriteJSONL(&data); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCurvesJSONL(&data)
	if err != nil {
		t.Fatal(err)
	}
	want := cs.Curves()
	if !reflect.DeepEqual(got.Curves(), want) {
		t.Fatalf("round trip changed the set:\n%+v\n%+v", got.Curves(), want)
	}
	if want[0].Policy != "proposed" {
		t.Fatalf("curves not sorted by coordinates: first is %q", want[0].Policy)
	}
	if _, err := DecodeCurvesJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("corrupt archive accepted")
	}
}

// TestCurveSetCSV: the -learning-csv surface is deterministic (byte-equal on
// re-render) and flattens every run's points under its coordinates.
func TestCurveSetCSV(t *testing.T) {
	cs := NewCurveSet()
	cs.Add(RunCurve{Policy: "proposed", Workload: "mpegdec", Seed: 7, Repeat: 1,
		Points: []CurvePoint{{Epoch: 1, TimeS: 1, Reward: 0.5}, {Epoch: 2, TimeS: 2, AbsTD: 0.25}}})
	var a, b bytes.Buffer
	if err := cs.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := cs.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("CSV rendering is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 points:\n%s", len(lines), a.String())
	}
	if !strings.HasPrefix(lines[0], "policy,workload,seed,repeat,epoch,") {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "proposed,mpegdec,7,1,1,") {
		t.Fatalf("unexpected first row %q", lines[1])
	}
}

// TestLearningFinalizeStats: Finalize feeds the process-wide learning-health
// counters exactly once per sampler, and convergence bumps the converged
// count alongside.
func TestLearningFinalizeStats(t *testing.T) {
	runs0, conv0, _ := LearningStats()

	q := NewQTable(2, 2)
	s := NewLearningSampler(2)
	stepEpoch(s, 1, q)
	stepEpoch(s, 2, q)
	s.Finalize()
	s.Finalize() // idempotent

	runs1, conv1, last1 := LearningStats()
	if runs1 != runs0+1 || conv1 != conv0+1 {
		t.Fatalf("stats moved (%d,%d) -> (%d,%d), want +1/+1", runs0, conv0, runs1, conv1)
	}
	if last1 != 1 {
		t.Fatalf("last converge epoch %d, want 1", last1)
	}

	n := NewLearningSampler(2)
	n.Finalize() // sampled nothing, never converged
	runs2, conv2, _ := LearningStats()
	if runs2 != runs1+1 || conv2 != conv1 {
		t.Fatalf("unconverged finalize moved stats (%d,%d) -> (%d,%d), want runs+1 only", runs1, conv1, runs2, conv2)
	}
}
