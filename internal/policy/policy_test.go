package policy_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestRegistryCoversExperimentPolicies pins the zoo's contents: every policy
// name the experiment tables use, plus the two related-work learners.
func TestRegistryCoversExperimentPolicies(t *testing.T) {
	want := []string{
		experiments.PolicyLinuxOndemand, experiments.PolicyLinuxPowersave,
		experiments.PolicyLinux24, experiments.PolicyLinux34,
		experiments.PolicyGe, experiments.PolicyGeModified,
		experiments.PolicyThrottle, experiments.PolicyProposed,
		"releta", "distilled",
	}
	for _, name := range want {
		f, ok := policy.Lookup(name)
		if !ok {
			t.Errorf("registry missing %q", name)
			continue
		}
		if f.Description == "" {
			t.Errorf("%q has no description", name)
		}
		p, err := policy.New(name, policy.Options{})
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("%q built a policy with an empty name", name)
		}
	}
	if got := len(policy.Names()); got != len(want) {
		t.Errorf("registry has %d policies, want %d: %v", got, len(want), policy.Names())
	}
}

func TestUnknownPolicyError(t *testing.T) {
	_, err := policy.New("no-such-policy", policy.Options{})
	var upe *policy.UnknownPolicyError
	if !errors.As(err, &upe) {
		t.Fatalf("err = %v, want *UnknownPolicyError", err)
	}
	if upe.Name != "no-such-policy" {
		t.Errorf("Name = %q", upe.Name)
	}
}

func TestDistillQTableArgmax(t *testing.T) {
	q := rl.NewQTable(3, 4)
	q.Set(0, 2, 5)
	q.Set(1, 0, 1)
	q.Set(1, 3, 0.5)
	// State 2 is all zeros: ties break toward the lowest action index.
	tab := policy.DistillQTable(q)
	if tab.States != 3 || tab.Actions != 4 {
		t.Fatalf("dimensions %dx%d", tab.States, tab.Actions)
	}
	for s, want := range []int{2, 0, 0} {
		if got := tab.Lookup(s); got != want {
			t.Errorf("Lookup(%d) = %d, want %d", s, got, want)
		}
	}
}

func TestDistilledCheckpointRoundTrip(t *testing.T) {
	tab := &policy.DecisionTable{States: 3, Actions: 4, Best: []int{2, 0, 3}}
	payload, err := policy.EncodeDistilled(tab)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := policy.DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Kind != policy.KindDistilled {
		t.Errorf("kind = %q, want %q", ck.Kind, policy.KindDistilled)
	}
	if ck.Table == nil || ck.Table.States != 3 || ck.Table.Actions != 4 {
		t.Fatalf("table = %+v", ck.Table)
	}
	for s, want := range tab.Best {
		if ck.Table.Lookup(s) != want {
			t.Errorf("state %d: %d, want %d", s, ck.Table.Lookup(s), want)
		}
	}
}

func TestDecodeDistilledRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"policy_kind":"distilled","states":0,"actions":4,"best":[]}`,
		`{"policy_kind":"distilled","states":2,"actions":4,"best":[1]}`,
		`{"policy_kind":"distilled","states":2,"actions":4,"best":[1,9]}`,
	}
	for _, c := range cases {
		if _, err := policy.DecodeCheckpoint([]byte(c)); err == nil {
			t.Errorf("expected error for %s", c)
		}
	}
}

// TestForeignKindCheckpointIgnored: a checkpoint whose kind belongs to a
// different learner is silently skipped (the way deterministic baselines skip
// warm starts), so one tournament-wide warm_start works on a mixed roster.
func TestForeignKindCheckpointIgnored(t *testing.T) {
	payload, err := policy.EncodeDistilled(&policy.DecisionTable{States: 12, Actions: 12, Best: make([]int, 12)})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := policy.DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := policy.New("releta", policy.Options{Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if r := p.(*policy.ReLeTA); r.Warm != nil {
		t.Error("releta adopted a distilled-kind checkpoint")
	}
	if _, err := policy.New("proposed", policy.Options{Seed: 5, Checkpoint: ck}); err != nil {
		t.Errorf("proposed rejected a foreign-kind checkpoint: %v", err)
	}
	if _, err := policy.New("linux-ondemand", policy.Options{Checkpoint: ck}); err != nil {
		t.Errorf("baseline rejected a checkpoint: %v", err)
	}
}

// TestIgnoresSeedDeclaration: every factory that declares IgnoresSeed builds
// instances whose runs are bit-identical whatever the seed, both without a
// checkpoint and with one of a kind the policy does not own. A tournament
// runs such a policy once per workload and shares that run among its seeds,
// so a factory that starts using its seed fails here until it drops the
// declaration.
func TestIgnoresSeedDeclaration(t *testing.T) {
	payload, err := policy.EncodeDistilled(&policy.DecisionTable{States: 12, Actions: 12, Best: make([]int, 12)})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := policy.DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	// The Ge & Qiu learner decides every 2 s: ten iterations of tachyon
	// give it enough epochs for seeded exploration to show.
	sp := workload.TachyonSpec(workload.Set1)
	sp.Iterations = 10
	var declared []string
	for _, name := range policy.Names() {
		f, _ := policy.Lookup(name)
		if !f.IgnoresSeed {
			continue
		}
		declared = append(declared, name)
		for _, ck := range []*policy.Checkpoint{nil, foreign} {
			var res [2]*sim.Result
			for i, seed := range []int64{1, 2} {
				pol, err := f.New(policy.Options{Seed: seed, Checkpoint: ck})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res[i], err = sim.Run(sim.DefaultRunConfig(), sp.Generate(), pol); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Errorf("%s declares IgnoresSeed, but seeds 1 and 2 (checkpoint %v) ran different simulations", name, ck != nil)
			}
		}
	}
	// The example tournament's shared runs rest on these two declarations.
	for _, name := range []string{"linux-ondemand", "ge-qiu"} {
		if f, _ := policy.Lookup(name); !f.IgnoresSeed {
			t.Errorf("%s no longer declares IgnoresSeed (declared: %v)", name, declared)
		}
	}
}

// TestProposedCheckpointDimensionError: a matching-kind checkpoint with the
// wrong table shape is a hard typed error, not a silent adoption.
func TestProposedCheckpointDimensionError(t *testing.T) {
	a := rl.NewAgent(rl.DefaultAgentConfig(3, 4))
	var buf bytes.Buffer
	if err := a.SaveKind(&buf, policy.KindProposed); err != nil {
		t.Fatal(err)
	}
	ck, err := policy.DecodeCheckpoint(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, err = policy.New("proposed", policy.Options{Checkpoint: ck})
	var de *rl.DimensionError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *rl.DimensionError", err)
	}
}

// trainTeacher runs the proposed controller over one application and returns
// its saved agent state as a proposed-kind checkpoint.
func trainTeacher(t *testing.T, seed int64, app string) *policy.Checkpoint {
	t.Helper()
	pol, err := policy.New("proposed", policy.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.DefaultRunConfig()
	rc.DiscardTrace = true
	work, err := workload.ByName(app, workload.Set1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(rc, work, pol); err != nil {
		t.Fatal(err)
	}
	payload, err := pol.(policy.Checkpointer).SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := policy.DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestDistilledTeacherAgreement distills a trained teacher into a decision
// table, replays the teacher (warm-started) on a held-out application, and
// checks that the table reproduces the teacher's recorded actions in the
// states it visited. Deviations come only from the teacher's residual
// learning and hysteresis stickiness, so agreement should stay high.
func TestDistilledTeacherAgreement(t *testing.T) {
	ck := trainTeacher(t, 11, "mpegdec")
	table := policy.DistillQTable(ck.Agent.WarmTable())

	pol, err := policy.New("proposed", policy.Options{Seed: 11, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.DefaultRunConfig()
	rc.DiscardTrace = true
	tr := telemetry.NewTracer(0)
	rc.Tracer = tr
	work, err := workload.ByName("tachyon", workload.Set1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(rc, work, pol); err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for _, ev := range telemetry.DecisionEvents(tr.Snapshot()) {
		if ev.Kind != telemetry.EventDecision {
			continue
		}
		total++
		if table.Lookup(ev.State) == ev.Action {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("held-out run recorded no decision epochs")
	}
	if ratio := float64(agree) / float64(total); ratio < 0.7 {
		t.Errorf("distilled/teacher action agreement %.2f (%d/%d) below 0.7", ratio, agree, total)
	}
}

// TestDistilledFrozenFromCheckpoint: a distilled policy built from a
// proposed-kind checkpoint starts frozen (offline distillation) and never
// bootstraps a teacher.
func TestDistilledFrozenFromCheckpoint(t *testing.T) {
	ck := trainTeacher(t, 3, "mpegdec")
	pol, err := policy.New("distilled", policy.Options{Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	d := pol.(*policy.Distilled)
	rc := sim.DefaultRunConfig()
	rc.DiscardTrace = true
	work, _ := workload.ByName("tachyon", workload.Set1)
	if _, err := sim.Run(rc, work, d); err != nil {
		t.Fatal(err)
	}
	if d.DistilledAtEpoch() != 0 {
		t.Errorf("DistilledAtEpoch = %d, want 0 (pre-trained)", d.DistilledAtEpoch())
	}
	if d.DecisionEpochs() == 0 {
		t.Error("no decision epochs ran")
	}
	if _, n := d.RewardStats(); n == 0 {
		t.Error("frozen run reported no rewards")
	}
}

// TestDistilledBootstrapFreezes: without a checkpoint the hybrid bootstrap
// learns until convergence, then freezes the table and drops the teacher.
func TestDistilledBootstrapFreezes(t *testing.T) {
	pol, err := policy.New("distilled", policy.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d := pol.(*policy.Distilled)
	rc := sim.DefaultRunConfig()
	rc.DiscardTrace = true
	work, _ := workload.ByName("mpegdec", workload.Set1)
	if _, err := sim.Run(rc, work, d); err != nil {
		t.Fatal(err)
	}
	if d.DistilledAtEpoch() == 0 {
		t.Skip("teacher did not converge within this workload; nothing to assert")
	}
	snap := d.TableSnapshot()
	if snap == nil {
		t.Fatal("frozen policy has no table")
	}
	payload, err := d.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := policy.DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Kind != policy.KindDistilled {
		t.Errorf("checkpoint kind = %q", ck.Kind)
	}
}

// TestReLeTACheckpointRoundTrip runs the ReLeTA learner, persists its agent
// state, and rebuilds a warm-started instance from the tagged payload.
func TestReLeTACheckpointRoundTrip(t *testing.T) {
	pol, err := policy.New("releta", policy.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := pol.(*policy.ReLeTA)
	rc := sim.DefaultRunConfig()
	rc.DiscardTrace = true
	work, _ := workload.ByName("mpegdec", workload.Set1)
	if _, err := sim.Run(rc, work, r); err != nil {
		t.Fatal(err)
	}
	if r.DecisionEpochs() == 0 {
		t.Fatal("releta ran no decision epochs")
	}
	payload, err := r.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := policy.DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Kind != policy.KindReLeTA {
		t.Fatalf("kind = %q, want %q", ck.Kind, policy.KindReLeTA)
	}
	warm, err := policy.New("releta", policy.Options{Seed: 4, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	r2 := warm.(*policy.ReLeTA)
	if r2.Warm == nil {
		t.Fatal("checkpoint not adopted")
	}
	if _, err := sim.Run(rc, work, r2); err != nil {
		t.Fatal(err)
	}
}
