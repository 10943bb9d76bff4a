package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/reliability"
	"repro/internal/rl"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/thermal"
)

// replayPlan is what the traced run replays in the benchmark process: a
// workload's cells built by the same planner the server uses, plus the
// layer checks that apply to it.
type replayPlan struct {
	cells []experiments.Cell
	// planMS holds the median planner timings by metric name.
	planMS map[string]float64
	// digest reduces the replayed rows to the reference digest of one job
	// output (key), so the replay is checked like a server job; nil skips
	// the check.
	digest func(rows []any) (key, digest string, err error)
	// speedup compares sequential sim.Run with sim.RunBatch on the cells;
	// set for workloads whose pool batches.
	speedup bool
}

// timeMedian runs f reps times and returns the median wall time in ms.
func timeMedian(reps int, f func() error) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = ms(time.Since(t))
	}
	return median(xs), nil
}

func tournamentPlan(b *bench) (replayPlan, error) {
	cfg := experiments.DefaultConfig()
	doc := b.docs[b.variant]
	cfg.CampaignJSON = doc
	var cells []experiments.Cell
	planMS, err := timeMedian(20, func() error {
		if _, err := campaign.ParseSpec(doc); err != nil {
			return err
		}
		var err error
		cells, _, err = campaign.Cells(cfg, campaign.Experiment)
		return err
	})
	if err != nil {
		return replayPlan{}, err
	}
	expMS, err := experimentsPlanMS(b.variant)
	if err != nil {
		return replayPlan{}, err
	}
	return replayPlan{
		cells:  cells,
		planMS: map[string]float64{"campaign.plan_ms": planMS, "experiments.plan_ms": expMS},
		digest: func(rows []any) (string, string, error) {
			csv, err := leaderboardCSV(rows)
			return leaderboardKey, sha(csv), err
		},
	}, nil
}

func leaderboardCSV(rows []any) ([]byte, error) {
	rs := make([]campaign.Row, len(rows))
	for i, r := range rows {
		rs[i] = r.(campaign.Row)
	}
	var buf bytes.Buffer
	err := campaign.WriteCSV(&buf, campaign.Leaderboard(rs))
	return buf.Bytes(), err
}

// experimentsPlanMS times experiments.Cells over one regeneration round of
// every listed experiment in quick mode, the planner thermserved runs for
// each POST /v1/jobs.
func experimentsPlanMS(variant int) (float64, error) {
	seed := 1 + inputRNG(variant).Int63n(1<<31)
	names := experiments.ExperimentNames()
	return timeMedian(20, func() error {
		for _, e := range names {
			if _, _, err := experiments.Cells(service.Spec{Experiment: e, Quick: true, Seed: seed}.Config(), e); err != nil {
				return err
			}
		}
		return nil
	})
}

// The hand-driven loop times blocks of blockTicks consecutive ticks in
// three rotating modes, so no timed interval ever contains another clock
// read (a clock read costs about as much as a 6-node thermal step):
//
//   - blockWhole times the block as a whole: platform step + policy tick +
//     recording, per tick;
//   - blockPolicy times each Policy.Tick on its own;
//   - blockThermal times each thermal Stepper.Step on its own, through the
//     wrapper the platform is built around.
//
// Recording pushes are timed in the last two modes; the platform step is the
// whole-block tick minus the policy tick and the recording it contains.
const blockTicks = 16

const (
	blockWhole = iota
	blockPolicy
	blockThermal
	numBlockModes
)

// timedStepper wraps the platform's thermal stepper and times Step while on.
type timedStepper struct {
	thermal.Stepper
	on bool
	ns int64
	n  int64
}

func (s *timedStepper) Step(dt float64, p []float64) error {
	if !s.on {
		return s.Stepper.Step(dt, p)
	}
	t := time.Now()
	err := s.Stepper.Step(dt, p)
	s.ns += int64(time.Since(t))
	s.n++
	return err
}

// clockCost is the median cost of one time.Now read as seen inside a timed
// interval; it is subtracted from every timed interval.
func clockCost() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return median(xs)
}

// layerTimes accumulates the hand-driven loop's timings (ns) and counts.
type layerTimes struct {
	ticks               int64
	wholeNS             float64
	wholeTicks          int64
	wholePushes         float64
	thermalNS           float64
	thermalN            int64
	policyNS            map[string]float64
	policyN             map[string]int64
	pushNS, pushesTimed float64
	pushesAll           float64
}

// handLoop drives one cell the way sim.Run does — record, platform step,
// policy tick — on a platform built around a timed FixedStepper, with a
// streaming MTTF accumulator per core fed on each recorded sample. It
// returns the simulated completion time and step count, which must equal
// sim.Run's exactly.
func handLoop(br sim.BatchRun, lt *layerTimes, clk float64) (execS float64, steps int64, err error) {
	cfg := br.Cfg
	rows, cols := platform.GridDims(cfg.Platform)
	fp := thermal.GridFloorplan(rows, cols, cfg.Platform.Floorplan)
	fs, err := thermal.NewFixedStepper(fp.Net, cfg.Platform.TickS)
	if err != nil {
		return 0, 0, err
	}
	ts := &timedStepper{Stepper: fs}
	p := platform.NewWithStepper(cfg.Platform, br.Work, ts)
	pol := br.Policy
	if err := pol.Attach(p); err != nil {
		return 0, 0, err
	}
	if la, ok := pol.(sim.LearningAttacher); ok && cfg.LearningObserver != nil {
		la.AttachLearningSampler(rl.NewLearningSampler(0))
	}
	accs := make([]*reliability.MTTFAccumulator, p.NumCores())
	for i := range accs {
		accs[i] = reliability.NewMTTFAccumulator(cfg.Cycling, cfg.Aging)
	}
	name := pol.Name()
	var next float64
	var blockStart time.Time
	var blockPushes float64
	for ; ; steps++ {
		mode := int(steps/blockTicks) % numBlockModes
		if steps%blockTicks == 0 && mode == blockWhole {
			blockStart, blockPushes = time.Now(), 0
		}
		if p.Done() {
			break
		}
		if p.Now() >= cfg.MaxSimS {
			return 0, 0, fmt.Errorf("replay: %s exceeded max sim time", name)
		}
		if p.Now()+1e-9 >= next {
			temps := p.Temperatures()
			if mode == blockWhole {
				for c, v := range temps {
					accs[c].Push(v)
				}
				blockPushes += float64(len(temps))
			} else {
				t := time.Now()
				for c, v := range temps {
					accs[c].Push(v)
				}
				lt.pushNS += math.Max(0, float64(time.Since(t))-clk)
				lt.pushesTimed += float64(len(temps))
			}
			lt.pushesAll += float64(len(temps))
			next += cfg.RecordIntervalS
		}
		switch mode {
		case blockPolicy:
			p.Step()
			t := time.Now()
			pol.Tick(p)
			lt.policyNS[name] += math.Max(0, float64(time.Since(t))-clk)
			lt.policyN[name]++
		case blockThermal:
			ts.on = true
			p.Step()
			ts.on = false
			pol.Tick(p)
		default:
			p.Step()
			pol.Tick(p)
			if (steps+1)%blockTicks == 0 {
				lt.wholeNS += math.Max(0, float64(time.Since(blockStart))-clk)
				lt.wholeTicks += blockTicks
				lt.wholePushes += blockPushes
			}
		}
	}
	lt.ticks += steps
	lt.thermalNS += math.Max(0, float64(ts.ns)-float64(ts.n)*clk)
	lt.thermalN += ts.n
	return p.Now(), steps, nil
}

func simSteps() int64 {
	v, _ := telemetry.Default().Value("sim_steps_total")
	return int64(v)
}

func prepare(c experiments.Cell) (sim.BatchRun, experiments.FinishCell, error) {
	if c.Prepare == nil {
		return sim.BatchRun{}, nil, fmt.Errorf("replay: cell %s has no prepare split", c.Key)
	}
	return c.Prepare(context.Background())
}

// replayReport is the replay's per-layer numbers plus its faithfulness
// findings (every mismatch makes the run incorrect).
type replayReport struct {
	metrics    map[string]float64
	mismatches []string
	rows       []any // the replayed cells' rows, in plan order
}

// replay runs part (b) of the traced run for one plan. workers is the
// pool's worker count, which sets its lane grouping.
func replay(b *bench, plan replayPlan, workers int) (replayReport, error) {
	rep := replayReport{metrics: map[string]float64{}}
	m := rep.metrics
	var err error
	for k, v := range plan.planMS {
		m[k] = v
	}
	clk := clockCost()
	lt := &layerTimes{policyNS: map[string]float64{}, policyN: map[string]int64{}}
	var runNS, allocB float64
	var simTicks int64
	rep.rows = make([]any, len(plan.cells))
	for i, c := range plan.cells {
		var br sim.BatchRun
		var fin experiments.FinishCell
		br, fin, err = prepare(c)
		if err != nil {
			return rep, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		s0 := simSteps()
		t := time.Now()
		var res *sim.Result
		res, err = sim.Run(br.Cfg, br.Work, br.Policy)
		runNS += float64(time.Since(t))
		if err != nil {
			return rep, fmt.Errorf("replay %s: %w", c.Key, err)
		}
		steps := simSteps() - s0
		runtime.ReadMemStats(&ms1)
		allocB += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		simTicks += steps
		if rep.rows[i], err = fin(res); err != nil {
			return rep, err
		}
		br2, _, err := prepare(c)
		if err != nil {
			return rep, err
		}
		execS, handSteps, err := handLoop(br2, lt, clk)
		if err != nil {
			return rep, err
		}
		if execS != res.ExecTimeS || handSteps != steps {
			rep.mismatches = append(rep.mismatches, fmt.Sprintf(
				"replay %s: hand-driven loop ran %d steps to %v s, sim.Run %d steps to %v s",
				c.Key, handSteps, execS, steps, res.ExecTimeS))
		}
	}
	n := float64(len(plan.cells))
	m["sim.run_ms"] = runNS / n / 1e6
	m["sim.ns_per_tick"] = ratio(runNS, float64(simTicks))
	m["sim.alloc_kb_per_cell"] = allocB / n / 1024
	m["thermal.step_ns"] = ratio(lt.thermalNS, float64(lt.thermalN))
	var polNS float64
	var polN int64
	for name, ns := range lt.policyNS {
		m["policy.tick_ns."+name] = ns / float64(lt.policyN[name])
		polNS += ns
		polN += lt.policyN[name]
	}
	polPerTick := ratio(polNS, float64(polN))
	pushNS := ratio(lt.pushNS, lt.pushesTimed)
	m["reliability.push_ns"] = pushNS
	tick := ratio(lt.wholeNS, float64(lt.wholeTicks))
	m["platform.step_ns"] = tick - polPerTick - pushNS*lt.wholePushes/float64(lt.wholeTicks)
	m["platform.self_ns"] = m["platform.step_ns"] - m["thermal.step_ns"]
	explained := m["platform.step_ns"] + polPerTick + pushNS*lt.pushesAll/float64(lt.ticks)
	m["sim.loop_self_ns"] = m["sim.ns_per_tick"] - explained
	m["coverage.layers_explain_sim_run"] = ratio(explained, m["sim.ns_per_tick"])

	if plan.digest != nil {
		key, d, err := plan.digest(rep.rows)
		if err != nil {
			return rep, err
		}
		if err := b.checkFor(b.variant)(key, d); err != nil {
			rep.mismatches = append(rep.mismatches, "replayed rows: "+err.Error())
		}
	}
	if m["campaign.leaderboard_ms"], err = timeMedian(50, func() error {
		_, err := leaderboardCSV(rep.rows)
		return err
	}); err != nil {
		return rep, err
	}
	if plan.speedup {
		sp, err := batchSpeedup(plan.cells, workers)
		if err != nil {
			return rep, err
		}
		m["sim.batch_speedup"] = sp
	}
	if m["reliability.rainflow_ms_per_run"], err = rainflowMS(plan.cells[0]); err != nil {
		return rep, err
	}
	if m["thermal.factorize_ms"], err = factorizeMS(plan.cells[0]); err != nil {
		return rep, err
	}
	return rep, nil
}

// batchSpeedup times the cells run one by one with sim.Run against the
// same cells grouped the way the pool groups them (lanes capped at
// ⌈cells/workers⌉) and run through sim.RunBatch, both on one goroutine.
// It returns median sequential time ÷ median batched time over 3 pairs.
func batchSpeedup(cells []experiments.Cell, workers int) (float64, error) {
	lanes := (len(cells) + workers - 1) / workers
	groups, scalar := campaign.PlanBatches(cells, lanes)
	for _, i := range scalar {
		groups = append(groups, []int{i})
	}
	var seq, bat []float64
	for rep := 0; rep < 3; rep++ {
		var total time.Duration
		for _, c := range cells {
			br, _, err := prepare(c)
			if err != nil {
				return 0, err
			}
			t := time.Now()
			if _, err := sim.Run(br.Cfg, br.Work, br.Policy); err != nil {
				return 0, err
			}
			total += time.Since(t)
		}
		seq = append(seq, float64(total))
		total = 0
		for _, g := range groups {
			runs := make([]sim.BatchRun, len(g))
			for j, i := range g {
				br, _, err := prepare(cells[i])
				if err != nil {
					return 0, err
				}
				runs[j] = br
			}
			t := time.Now()
			_, errs := sim.RunBatch(runs)
			total += time.Since(t)
			for _, err := range errs {
				if err != nil {
					return 0, err
				}
			}
		}
		bat = append(bat, float64(total))
	}
	return median(seq) / median(bat), nil
}

// factorizeMS times thermal.NewFixedStepper on the cell's floorplan. The
// factorization cache would answer repeats from memory, so each of the 8
// timed builds perturbs the ambient temperature by a negligible amount to
// force a cold factorization of the same-sized system.
func factorizeMS(c experiments.Cell) (float64, error) {
	br, _, err := prepare(c)
	if err != nil {
		return 0, err
	}
	rows, cols := platform.GridDims(br.Cfg.Platform)
	fp := thermal.GridFloorplan(rows, cols, br.Cfg.Platform.Floorplan)
	amb := fp.Net.Ambient()
	k := 0
	return timeMedian(8, func() error {
		k++
		fp.Net.SetAmbient(amb + float64(k)*1e-7)
		_, err := thermal.NewFixedStepper(fp.Net, br.Cfg.Platform.TickS)
		return err
	})
}

// rainflowMS reruns one cell with its oracle trace retained and times the
// rainflow count plus stress evaluation over every core's warm series.
func rainflowMS(c experiments.Cell) (float64, error) {
	br, _, err := prepare(c)
	if err != nil {
		return 0, err
	}
	br.Cfg.DiscardTrace = false
	res, err := sim.Run(br.Cfg, br.Work, br.Policy)
	if err != nil {
		return 0, err
	}
	skip := int(br.Cfg.WarmupSkipS / res.Trace.IntervalS)
	return timeMedian(5, func() error {
		for _, s := range res.Trace.Cores {
			vals := s.Values
			if len(vals) > skip+10 {
				vals = vals[skip:]
			}
			br.Cfg.Cycling.ThermalStress(reliability.Rainflow(vals))
		}
		return nil
	})
}
