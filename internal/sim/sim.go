// Package sim runs a policy (Linux governor, the Ge & Qiu baseline, or the
// proposed RL controller) on the simulated platform until the workload
// completes, and derives the ground-truth metrics the paper reports:
// average/peak temperature, thermal-cycling MTTF, aging MTTF, execution
// time, energy and perf counters.
package sim

import (
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/reliability"
	"repro/internal/rl"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy is a thermal-management policy driving a platform.
type Policy interface {
	// Name identifies the policy in result tables.
	Name() string
	// Attach configures the policy on a fresh platform before the run.
	Attach(p *platform.Platform) error
	// Tick is invoked once after every platform step.
	Tick(p *platform.Platform)
}

// RunConfig parameterizes a simulation run.
type RunConfig struct {
	// Platform configures the machine.
	Platform platform.Config
	// RecordIntervalS is the oracle trace sampling interval used for
	// ground-truth reliability metrics. It must stay well below the
	// workloads' iteration periods to avoid aliasing away thermal cycles
	// (the effect Fig. 6 shows for coarse sampling); the default is 0.25 s.
	RecordIntervalS float64
	// MaxSimS aborts runaway runs (safety net), seconds.
	MaxSimS float64
	// WarmupSkipS excludes the initial cold-start ramp from the thermal
	// metrics (the paper measures on an already-warm machine; without this
	// the single ambient-to-operating ramp would be rainflow-counted as one
	// giant cycle and dominate the fatigue stress of every policy alike).
	WarmupSkipS float64
	// DiscardTrace, when set, drops the oracle traces: Result.Trace and
	// Result.PowerTrace are nil. The thermal metrics are computed online by
	// the streaming rainflow/MTTF accumulators either way, so they do not
	// depend on it. Use it for experiment rows that only need scalars; leave
	// it off when the trace itself is exported (plots, CSV).
	DiscardTrace bool
	// Cycling and Aging are the reliability constants for ground-truth
	// MTTF computation.
	Cycling reliability.CyclingParams
	Aging   reliability.AgingParams
	// LearningObserver, when non-nil, arms learning-curve sampling on the
	// learners (LearningAttacher): a fresh sampler is attached before the
	// run and finalized after it, and its curve, with the policy and
	// workload names filled in, is handed to the observer with the policy.
	// Closing thermal cycles are attributed to the decision epoch and action
	// in force. Sampling is observation-only — it never touches a policy's
	// action-selection RNG — so enabling it leaves every other result field
	// bit-identical. Nil disables sampling with zero overhead.
	LearningObserver func(rl.RunCurve, Policy)
	// Tracer, when non-nil, collects hierarchical run/window/epoch spans
	// (window spans are traceWindowS of simulated time wide; each epoch span
	// carries one decision event of a policy that reports its decisions);
	// TraceParent is the span the run span nests under (0 for a root span).
	// A nil Tracer disables tracing with zero overhead on the step loop.
	Tracer      *telemetry.Tracer
	TraceParent telemetry.SpanID
	// TempCeilingC, when positive, arms the thermal-runaway anomaly check: any
	// sampled core temperature above the ceiling trips Anomalies. The
	// ceiling is a fault detector, not a control knob — set it well above
	// the policies' thermal thresholds.
	TempCeilingC float64
	// Anomalies receives thermal-runaway and numeric anomalies detected
	// while sampling (typically a *telemetry.FlightRecorder). Nil disables
	// detection.
	Anomalies telemetry.AnomalySink
}

// DefaultRunConfig returns the standard configuration.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Platform:        platform.DefaultConfig(),
		RecordIntervalS: 0.25,
		MaxSimS:         20000,
		WarmupSkipS:     45,
		Cycling:         reliability.DefaultCyclingParams(),
		Aging:           reliability.DefaultAgingParams(),
	}
}

// Result summarizes a completed run.
type Result struct {
	// Policy and Workload name the run.
	Policy, Workload string
	// ExecTimeS is the workload completion time, seconds.
	ExecTimeS float64
	// Trace is the oracle per-core temperature trace.
	Trace *trace.MultiTrace
	// PowerTrace is the per-core total power (dynamic + leakage) sampled at
	// the same interval, for power-profile analysis.
	PowerTrace *trace.MultiTrace
	// AvgTempC and PeakTempC summarize the trace.
	AvgTempC, PeakTempC float64
	// CyclingMTTF and AgingMTTF are the chip MTTFs in years (worst core).
	CyclingMTTF, AgingMTTF float64
	// CombinedMTTF merges both wear-out mechanisms under the
	// sum-of-failure-rates model (Section 4.1), years.
	CombinedMTTF float64
	// CoreCyclingStress is the per-core Eq. 6 plastic fatigue stress over
	// the warm window — the numerator basis of the cycling MTTF before the
	// min-over-cores reduction.
	CoreCyclingStress []float64
	// CoreDamageShare normalizes CoreCyclingStress to sum to 1 (which cores
	// absorbed the cycling damage); all zeros when no core accumulated
	// stress.
	CoreDamageShare []float64
	// DynamicEnergyJ and StaticEnergyJ are the metered energies.
	DynamicEnergyJ, StaticEnergyJ float64
	// AvgDynPowerW is the average dynamic power over the run.
	AvgDynPowerW float64
	// CacheMisses and PageFaults are the accumulated perf counters.
	CacheMisses, PageFaults int64
	// Migrations counts thread migrations.
	Migrations int64
	// AppSwitches counts application switches observed by the platform.
	AppSwitches int
}

// DecisionReporter is implemented by policies that report one decision
// event per epoch (the proposed RL controller). Run arms it after Attach when
// RunConfig.Tracer is set: each event becomes an epoch span under the run
// span.
type DecisionReporter interface {
	ReportDecisions(func(telemetry.DecisionEvent))
}

// LearningAttacher is implemented by the live Q-table learners (frozen
// policies like the distilled table have no curve to sample). Run arms it
// after Attach when RunConfig.LearningObserver is set: the sampler takes one
// learning-curve point per decision epoch, and CurrentDecision reports the
// decision epoch and applied action in force (epoch 0 / action -1 before the
// first decision), to which closing thermal cycles are attributed.
type LearningAttacher interface {
	AttachLearningSampler(*rl.LearningSampler)
	CurrentDecision() (epoch, action int)
}

// Run executes the workload under the policy until completion (or MaxSimS)
// and returns the collected metrics.
func Run(cfg RunConfig, work workload.Workload, policy Policy) (*Result, error) {
	return run(cfg, work, policy, platform.New)
}

// run is Run on the platform newPlatform builds. Tests pass a constructor
// that drives the platform with the reference thermal integrator.
func run(cfg RunConfig, work workload.Workload, policy Policy, newPlatform func(platform.Config, workload.Workload) *platform.Platform) (*Result, error) {
	r, err := newRun(cfg, work, policy, newPlatform)
	if err != nil {
		return nil, err
	}
	for {
		done, err := r.step()
		if err != nil {
			return nil, r.fail(err)
		}
		if done {
			return r.finish(), nil
		}
	}
}

// runState is the per-run state of the simulation loop: Run is newRun, then
// step until done, then finish.
type runState struct {
	cfg        RunConfig
	work       workload.Workload
	policy     Policy
	p          *platform.Platform
	runSpan    telemetry.SpanID
	guard      *runGuard
	windows    *windowAgg
	mt, pt     *trace.MultiTrace // nil under DiscardTrace
	sc         *scalarCollector
	learn      *rl.LearningSampler
	nextRecord float64
	steps      int64
}

// newRun performs everything Run does before its step loop: platform
// construction, policy attachment, observability arming and collector setup.
func newRun(cfg RunConfig, work workload.Workload, policy Policy, newPlatform func(platform.Config, workload.Workload) *platform.Platform) (*runState, error) {
	if cfg.RecordIntervalS <= 0 {
		return nil, fmt.Errorf("sim: RecordIntervalS must be positive, got %g", cfg.RecordIntervalS)
	}
	initSimMetrics()
	r := &runState{cfg: cfg, work: work, policy: policy}
	if cfg.Tracer != nil {
		r.runSpan = cfg.Tracer.Start(cfg.TraceParent, telemetry.KindRun,
			policy.Name()+"/"+work.Name(),
			telemetry.Str("policy", policy.Name()),
			telemetry.Str("workload", work.Name()))
	}
	r.p = newPlatform(cfg.Platform, work)
	if err := policy.Attach(r.p); err != nil {
		return nil, r.fail(fmt.Errorf("sim: attach %s: %w", policy.Name(), err))
	}
	if dr, ok := policy.(DecisionReporter); ok {
		if feed := decisionFeed(cfg.Tracer, r.runSpan); feed != nil {
			dr.ReportDecisions(feed)
		}
	}
	la, learns := policy.(LearningAttacher)
	if cfg.LearningObserver != nil && learns {
		r.learn = rl.NewLearningSampler(0)
		la.AttachLearningSampler(r.learn)
	}
	r.guard = newRunGuard(cfg, policy.Name()+"/"+work.Name())
	r.windows = newWindowAgg(cfg, r.runSpan)
	r.sc = newScalarCollector(cfg, r.p.NumCores())
	if !cfg.DiscardTrace {
		// Pre-size the series so the recording loop never grows a slice
		// mid-run. The estimate is the serialized-at-lowest-frequency upper
		// bound on execution time, clamped to the runaway limit; in the rare
		// case a run outlasts it, append simply grows.
		capacity := traceCapacity(cfg, work)
		r.mt = trace.NewMultiTraceCap(r.p.NumCores(), cfg.RecordIntervalS, capacity)
		r.pt = trace.NewMultiTraceCap(r.p.NumCores(), cfg.RecordIntervalS, capacity)
	}
	if r.learn != nil {
		armAttribution(r.sc.accs, la, r.learn)
	}
	return r, nil
}

// fail ends the run span with the error and returns it.
func (r *runState) fail(err error) error {
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.End(r.runSpan, telemetry.Str("error", err.Error()))
	}
	return err
}

// step runs one loop iteration: the completion and runaway checks, oracle
// trace recording when due, the platform step, then the policy tick on the
// post-step platform. done reports workload completion (finish may be
// called); a non-nil error means the run failed (pass it through fail).
func (r *runState) step() (done bool, err error) {
	p, cfg := r.p, &r.cfg
	if p.Done() {
		return true, nil
	}
	if p.Now() >= cfg.MaxSimS {
		return false, fmt.Errorf("sim: %s on %s exceeded max sim time %g s (completed %.1f%% of work)",
			r.policy.Name(), r.work.Name(), cfg.MaxSimS, 100*r.work.CompletedWork()/r.work.TotalWork())
	}
	if p.Now()+1e-9 >= r.nextRecord {
		temps := p.Temperatures()
		power := p.CorePower()
		r.sc.push(temps)
		if r.mt != nil {
			r.mt.Append(temps)
			r.pt.Append(power)
		}
		if r.guard != nil {
			r.guard.sample(p.Now(), temps)
		}
		if r.windows != nil {
			r.windows.sample(p.Now(), temps, power)
		}
		r.nextRecord += cfg.RecordIntervalS
	}
	p.Step()
	r.policy.Tick(p)
	r.steps++
	return false, nil
}

// finish runs Run's epilogue on a completed run and returns the result.
func (r *runState) finish() *Result {
	cfg, p := &r.cfg, r.p
	mSteps.Add(r.steps)
	if r.windows != nil {
		r.windows.flush(p.Now())
	}
	// collect flushes the accumulators' residual half cycles, so their
	// damage is attributed to the final decision before the sampler closes.
	res := r.collect()
	if r.learn != nil {
		r.learn.Finalize()
		cfg.LearningObserver(rl.RunCurve{
			Policy: r.policy.Name(), Workload: r.work.Name(),
			Points: r.learn.Points(), Summary: r.learn.Summary(),
		}, r.policy)
	}
	if r.guard != nil {
		r.guard.finals(res)
	}
	if cfg.Tracer != nil {
		cfg.Tracer.End(r.runSpan,
			telemetry.Num("exec_time_s", res.ExecTimeS),
			telemetry.Num("peak_c", res.PeakTempC),
			telemetry.Num("avg_c", res.AvgTempC),
			telemetry.Num("cycling_mttf_y", res.CyclingMTTF),
			telemetry.Num("aging_mttf_y", res.AgingMTTF),
			telemetry.Num("combined_mttf_y", res.CombinedMTTF),
			telemetry.Num("migrations", float64(res.Migrations)))
	}
	return res
}

// collect assembles the run's Result from the platform's meters and
// counters and the collector's thermal metrics.
func (r *runState) collect() *Result {
	p := r.p
	res := &Result{
		Policy:         r.policy.Name(),
		Workload:       r.work.Name(),
		ExecTimeS:      p.Now(),
		Trace:          r.mt,
		PowerTrace:     r.pt,
		DynamicEnergyJ: p.Meter().DynamicEnergy(),
		StaticEnergyJ:  p.Meter().StaticEnergy(),
		AvgDynPowerW:   p.Meter().AverageDynamicPower(),
		CacheMisses:    p.PerfCounters().CacheMisses,
		PageFaults:     p.PerfCounters().PageFaults,
		Migrations:     p.Scheduler().Migrations(),
		AppSwitches:    p.AppSwitches(),
	}
	cycles := r.sc.finish(r.cfg, res)
	res.CoreDamageShare = damageShares(res.CoreCyclingStress)
	res.CombinedMTTF = reliability.CombinedMTTF(res.CyclingMTTF, res.AgingMTTF)

	mRuns.Inc()
	mSimSeconds.Add(int64(res.ExecTimeS))
	mAppSwitches.Add(int64(res.AppSwitches))
	mCycles.Add(cycles)
	mPeakTemp.Observe(res.PeakTempC)
	mAvgTemp.Observe(res.AvgTempC)
	return res
}

// traceCapacity estimates the per-core sample count of a run for pre-sizing:
// the workload executed serially at the lowest operating frequency (an upper
// bound on execution time), clamped to the runaway limit.
func traceCapacity(cfg RunConfig, work workload.Workload) int {
	minFreq := math.Inf(1)
	for _, l := range cfg.Platform.Levels {
		if l.FrequencyGHz > 0 && l.FrequencyGHz < minFreq {
			minFreq = l.FrequencyGHz
		}
	}
	worstS := cfg.MaxSimS
	if !math.IsInf(minFreq, 1) && minFreq > 0 {
		if est := work.TotalWork() / minFreq; est < worstS {
			worstS = est
		}
	}
	return int(worstS/cfg.RecordIntervalS) + 2
}

// scalarCollector derives every run's thermal metrics from the sampled core
// temperatures as they arrive: the warmup trim, per-core average/peak,
// streaming rainflow cycling MTTF and incremental aging MTTF, without keeping
// the samples. Only the warmup head is buffered, because the trim decision —
// skip the first WarmupSkipS seconds, but only when the run records more than
// skip+10 samples — can't be made until enough samples have arrived.
type scalarCollector struct {
	skip      int // samples to drop when trimming engages
	buffering bool
	head      *trace.MultiTrace // buffered head while the trim decision is open
	accs      []*reliability.MTTFAccumulator
	sum       []float64 // per-core temperature sum past warmup
	max       []float64 // per-core peak past warmup
	n         int       // samples per core past warmup
}

func newScalarCollector(cfg RunConfig, cores int) *scalarCollector {
	sc := &scalarCollector{
		accs: make([]*reliability.MTTFAccumulator, cores),
		sum:  make([]float64, cores),
		max:  make([]float64, cores),
	}
	for i := range sc.accs {
		sc.accs[i] = reliability.NewMTTFAccumulator(cfg.Cycling, cfg.Aging)
	}
	for i := range sc.max {
		sc.max[i] = math.Inf(-1)
	}
	if skip := int(cfg.WarmupSkipS / cfg.RecordIntervalS); skip > 0 {
		sc.skip = skip
		sc.buffering = true
		sc.head = trace.NewMultiTraceCap(cores, cfg.RecordIntervalS, skip+11)
	}
	return sc
}

func (sc *scalarCollector) push(temps []float64) {
	if sc.buffering {
		sc.head.Append(temps)
		if sc.head.Len() > sc.skip+10 {
			// The run is long enough that the warmup trim applies: replay
			// the buffered samples past the skip point and stream directly
			// from now on. The head buffer (and with it the warmup ramp) is
			// dropped.
			sc.buffering = false
			for i := sc.skip; i < sc.head.Len(); i++ {
				sc.feedAt(sc.head, i)
			}
			sc.head = nil
		}
		return
	}
	for c, v := range temps {
		sc.feed(c, v)
	}
	sc.n++
}

func (sc *scalarCollector) feedAt(mt *trace.MultiTrace, i int) {
	for c, s := range mt.Cores {
		sc.feed(c, s.Values[i])
	}
	sc.n++
}

func (sc *scalarCollector) feed(c int, v float64) {
	sc.accs[c].Push(v)
	sc.sum[c] += v
	if v > sc.max[c] {
		sc.max[c] = v
	}
}

// finish derives the thermal metrics into res and returns the rainflow cycle
// count (the mCycles metric).
func (sc *scalarCollector) finish(cfg RunConfig, res *Result) int64 {
	if sc.buffering {
		// Run ended before the trim decision: too short to trim, keep
		// everything.
		for i := 0; i < sc.head.Len(); i++ {
			sc.feedAt(sc.head, i)
		}
		sc.head = nil
	}
	var sum float64
	peak := math.Inf(-1)
	cycling, aging := math.Inf(1), math.Inf(1)
	var cycles int64
	for c := range sc.accs {
		sum += sc.sum[c]
		if sc.max[c] > peak {
			peak = sc.max[c]
		}
		cy, ag := sc.accs[c].Finish(cfg.RecordIntervalS)
		if cy < cycling {
			cycling = cy
		}
		if ag < aging {
			aging = ag
		}
		cycles += sc.accs[c].Cycles()
	}
	if n := sc.n * len(sc.accs); n > 0 {
		res.AvgTempC = sum / float64(n)
	}
	res.PeakTempC = peak
	res.CyclingMTTF, res.AgingMTTF = cycling, aging
	res.CoreCyclingStress = make([]float64, len(sc.accs))
	for c := range sc.accs {
		res.CoreCyclingStress[c] = sc.accs[c].Stress()
	}
	return cycles
}

// armAttribution points every core accumulator's cycle hook at the sampler,
// pinning each closing cycle's stress delta to the decision in force.
func armAttribution(accs []*reliability.MTTFAccumulator, la LearningAttacher, learn *rl.LearningSampler) {
	for c := range accs {
		core := c
		accs[core].SetOnCycle(func(_ reliability.Cycle, stressDelta float64) {
			if stressDelta > 0 {
				_, action := la.CurrentDecision()
				learn.ObserveCycleDamage(core, action, stressDelta)
			}
		})
	}
}

// damageShares normalizes per-core stress to shares summing to 1; a zero
// total yields all-zero shares (no plastic cycling damage to attribute).
func damageShares(stress []float64) []float64 {
	if len(stress) == 0 {
		return nil
	}
	total := 0.0
	for _, v := range stress {
		total += v
	}
	shares := make([]float64, len(stress))
	if total > 0 {
		for i, v := range stress {
			shares[i] = v / total
		}
	}
	return shares
}
