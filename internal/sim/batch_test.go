package sim

import (
	"reflect"
	"testing"

	"repro/internal/governor"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// batchCase describes one run of a RunBatch-vs-Run comparison: a fresh
// config/workload/policy triple must be constructed per execution because
// workloads and policies are stateful.
type batchCase struct {
	name string
	mk   func() (RunConfig, workload.Workload, Policy)
}

func quadCase(name string, seed int64, mkPolicy func() Policy, discard bool) batchCase {
	return batchCase{name: name, mk: func() (RunConfig, workload.Workload, Policy) {
		cfg := DefaultRunConfig()
		cfg.Platform.Seed = seed
		cfg.Platform.SensorNoiseC = 0.3 // exercise the per-lane RNG stream
		cfg.DiscardTrace = discard
		return cfg, lightApp(), mkPolicy()
	}}
}

func gridCase(name string, rows, cols int, seed int64) batchCase {
	return batchCase{name: name, mk: func() (RunConfig, workload.Workload, Policy) {
		cfg := DefaultRunConfig()
		cfg.Platform.GridRows, cfg.Platform.GridCols = rows, cols
		cfg.Platform.Sched.NumCores = rows * cols
		cfg.Platform.Seed = seed
		cfg.DiscardTrace = true
		return cfg, manycoreApp(rows * cols), LinuxPolicy{Kind: governor.Ondemand}
	}}
}

// runScalarAndBatch executes the cases through Run and through RunBatch and
// requires every run's Result (all fields, traces included) to be
// bit-identical between the two paths.
func runScalarAndBatch(t *testing.T, cases []batchCase) ([]*Result, []*Result) {
	t.Helper()
	scalar := make([]*Result, len(cases))
	for i, c := range cases {
		cfg, work, pol := c.mk()
		res, err := Run(cfg, work, pol)
		if err != nil {
			t.Fatalf("scalar %s: %v", c.name, err)
		}
		scalar[i] = res
	}
	runs := make([]BatchRun, len(cases))
	for i, c := range cases {
		cfg, work, pol := c.mk()
		runs[i] = BatchRun{Cfg: cfg, Work: work, Policy: pol}
	}
	batched, errs := RunBatch(runs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch %s: %v", cases[i].name, err)
		}
	}
	for i := range cases {
		if !reflect.DeepEqual(scalar[i], batched[i]) {
			t.Errorf("%s: batched result differs from scalar:\nscalar:  %+v\nbatched: %+v",
				cases[i].name, scalar[i], batched[i])
		}
	}
	return scalar, batched
}

// TestRunBatchBitIdentical pins RunBatch's contract that each run equals
// Run, across batch sizes K ∈ {1, 3, 8} with mixed policies (governor, Ge &
// Qiu baseline, RL controller), mixed seeds and both collector modes.
func TestRunBatchBitIdentical(t *testing.T) {
	mkOndemand := func() Policy { return LinuxPolicy{Kind: governor.Ondemand} }
	mkPowersave := func() Policy { return LinuxPolicy{Kind: governor.Powersave} }
	mkGe := func() Policy { return &GePolicy{} }
	mkRL := func() Policy { return &ProposedPolicy{} }
	all := []batchCase{
		quadCase("ondemand-s1", 1, mkOndemand, true),
		quadCase("rl-s2", 2, mkRL, true),
		quadCase("ge-s3", 3, mkGe, true),
		quadCase("ondemand-s4-trace", 4, mkOndemand, false),
		quadCase("powersave-s5", 5, mkPowersave, true),
		quadCase("rl-s6", 6, mkRL, true),
		quadCase("ondemand-s7", 7, mkOndemand, true),
		quadCase("ge-s8", 8, mkGe, true),
	}
	for _, k := range []int{1, 3, 8} {
		t.Run(map[int]string{1: "K1", 3: "K3", 8: "K8"}[k], func(t *testing.T) {
			runScalarAndBatch(t, all[:k])
		})
	}
}

// TestRunBatchMixedConfigs puts three thermal configurations (quad-core,
// 3x3 grid, 4x4 grid) in one RunBatch call: every run must still be
// bit-identical to Run.
func TestRunBatchMixedConfigs(t *testing.T) {
	cases := []batchCase{
		quadCase("quad-a", 11, func() Policy { return LinuxPolicy{Kind: governor.Ondemand} }, true),
		gridCase("grid3x3-a", 3, 3, 12),
		gridCase("grid4x4", 4, 4, 13),
		gridCase("grid3x3-b", 3, 3, 14),
		quadCase("quad-b", 15, func() Policy { return &ProposedPolicy{} }, true),
	}
	runScalarAndBatch(t, cases)
}

// TestRunBatchDecisionSequence requires the RL controller's full decision
// event stream — state, action, reward, alpha, exploration flags per epoch —
// to be identical between Run and RunBatch.
func TestRunBatchDecisionSequence(t *testing.T) {
	mk := func(tr *telemetry.Tracer) (RunConfig, workload.Workload, Policy) {
		cfg := DefaultRunConfig()
		cfg.DiscardTrace = true
		cfg.Tracer = tr
		return cfg, lightApp(), &ProposedPolicy{}
	}
	scalarTr := telemetry.NewTracer(0)
	cfg, work, pol := mk(scalarTr)
	if _, err := Run(cfg, work, pol); err != nil {
		t.Fatal(err)
	}
	batchTr := telemetry.NewTracer(0)
	cfg2, work2, pol2 := mk(batchTr)
	// Pair the run under test with two sibling runs, so any state leaking
	// between neighbouring runs would show in its decision stream.
	sibling := func(seed int64) BatchRun {
		c := DefaultRunConfig()
		c.Platform.Seed = seed
		c.DiscardTrace = true
		return BatchRun{Cfg: c, Work: lightApp(), Policy: LinuxPolicy{Kind: governor.Ondemand}}
	}
	_, errs := RunBatch([]BatchRun{sibling(21), {Cfg: cfg2, Work: work2, Policy: pol2}, sibling(22)})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	se, be := telemetry.DecisionEvents(scalarTr.Snapshot()), telemetry.DecisionEvents(batchTr.Snapshot())
	if len(se) == 0 {
		t.Fatal("scalar run recorded no decision events")
	}
	if !reflect.DeepEqual(se, be) {
		t.Fatalf("decision sequences diverge: scalar %d events, batched %d events", len(se), len(be))
	}
}

// TestRunBatchLaneFailureIsolated makes one run exceed MaxSimS and requires
// its neighbours to finish bit-identical to their scalar runs.
func TestRunBatchLaneFailureIsolated(t *testing.T) {
	good := func() (RunConfig, workload.Workload, Policy) {
		cfg := DefaultRunConfig()
		cfg.DiscardTrace = true
		return cfg, lightApp(), LinuxPolicy{Kind: governor.Ondemand}
	}
	cfg, work, pol := good()
	want, err := Run(cfg, work, pol)
	if err != nil {
		t.Fatal(err)
	}
	badCfg := DefaultRunConfig()
	badCfg.DiscardTrace = true
	badCfg.MaxSimS = 1 // trips immediately
	cfgA, workA, polA := good()
	cfgB, workB, polB := good()
	results, errs := RunBatch([]BatchRun{
		{Cfg: cfgA, Work: workA, Policy: polA},
		{Cfg: badCfg, Work: lightApp(), Policy: LinuxPolicy{Kind: governor.Powersave}},
		{Cfg: cfgB, Work: workB, Policy: polB},
	})
	if errs[1] == nil {
		t.Fatal("runaway lane did not fail")
	}
	if results[1] != nil {
		t.Fatal("failed lane produced a result")
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("lane %d diverged from scalar after sibling failure", i)
		}
	}
}
