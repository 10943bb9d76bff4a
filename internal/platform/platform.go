// Package platform simulates the paper's experimental platform: an Intel
// quad-core running Linux, with per-core DVFS driven by cpufreq governors,
// on-board thermal sensors, performance counters and an energy meter.
//
// Each simulation tick couples four substrates:
//
//	scheduler -> per-core activity -> power model -> thermal RC network
//
// and exposes to controllers exactly the interfaces the paper's run-time
// system uses: quantized thermal sensor reads, affinity masks, governor
// selection, and perf-style counters.
package platform

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Counters model perf-style event counts (Fig. 6 plots cache misses and page
// faults against the temperature sampling interval).
type Counters struct {
	CacheMisses int64
	PageFaults  int64
}

// SolverKind selects the thermal integrator driving the platform.
type SolverKind int

const (
	// SolverFixed is the default: the precomputed constant-dt implicit
	// stepper (thermal.FixedStepper). The platform always steps the network
	// by the fixed TickS, so the whole update collapses to two dense matvecs
	// with zero per-step allocation — the fast path for long campaigns.
	SolverFixed SolverKind = iota
	// SolverImplicit is the backward-Euler reference (LU solve per step);
	// SolverFixed matches it to rounding error at the same TickS.
	SolverImplicit
)

// String returns the solver name.
func (k SolverKind) String() string {
	switch k {
	case SolverFixed:
		return "fixed"
	case SolverImplicit:
		return "implicit"
	default:
		return fmt.Sprintf("SolverKind(%d)", int(k))
	}
}

// Config parameterizes the simulated platform.
type Config struct {
	// TickS is the simulation time step in seconds.
	TickS float64
	// Solver selects the thermal integrator; the zero value is the
	// precomputed constant-dt fast path (SolverFixed). The backward-Euler
	// reference (SolverImplicit) remains available for validation runs.
	Solver SolverKind
	// Floorplan configures the thermal network.
	Floorplan thermal.FloorplanConfig
	// GridRows and GridCols select the core-grid dimensions; zero means
	// the paper's 2x2 quad-core. Sched.NumCores must equal their product.
	GridRows, GridCols int
	// Power is the per-core power model.
	Power power.Model
	// Levels is the DVFS operating-point table.
	Levels []power.Level
	// Sched configures the thread scheduler.
	Sched sched.Config
	// GovernorIntervalS is how often governors re-decide frequencies.
	GovernorIntervalS float64
	// SensorQuantC is the thermal sensor quantization step in degrees
	// Celsius (coretemp-style sensors report whole degrees).
	SensorQuantC float64
	// SensorNoiseC is the standard deviation of sensor read noise.
	SensorNoiseC float64
	// SampleCacheMisses / SamplePageFaults are the counter costs charged
	// per sensor read: the monitoring daemon pollutes caches and touches
	// pages every time it wakes (this produces the Fig. 6 counter trends).
	SampleCacheMisses int64
	SamplePageFaults  int64
	// MigrationCacheMisses / MigrationPageFaults are charged per thread
	// migration.
	MigrationCacheMisses int64
	MigrationPageFaults  int64
	// DVFSTransitionS is the execution stall charged to every thread on a
	// core whose DVFS level changes (PLL relock / voltage ramp latency).
	// Zero (the default) disables the cost.
	DVFSTransitionS float64
	// CorePowerScale optionally scales each core's dynamic power,
	// modeling heterogeneous (big.LITTLE-style) cores together with
	// Sched.CoreSpeed. nil or an entry of 0 means 1.0.
	CorePowerScale []float64
	// Seed drives sensor noise.
	Seed int64
}

// DefaultConfig returns the calibrated quad-core platform configuration.
func DefaultConfig() Config {
	return Config{
		TickS:                0.01,
		Floorplan:            thermal.DefaultFloorplanConfig(),
		Power:                power.DefaultModel(),
		Levels:               power.DefaultLevels(),
		Sched:                sched.DefaultConfig(),
		GovernorIntervalS:    0.1,
		SensorQuantC:         1.0,
		SensorNoiseC:         0.0,
		SampleCacheMisses:    60000,
		SamplePageFaults:     1200,
		MigrationCacheMisses: 40000,
		MigrationPageFaults:  60,
		Seed:                 7,
	}
}

// Platform is the simulated machine. It is not safe for concurrent use.
type Platform struct {
	cfg    Config
	fp     *thermal.Floorplan
	solver thermal.Stepper
	sch    *sched.Scheduler
	work   workload.Workload
	rng    *rand.Rand

	// DVFS state.
	coreLevel []int
	govs      []governor.Governor

	// Governor utilization accounting.
	busyAccum []float64
	govClock  float64

	meter    power.Meter
	counters Counters
	now      float64

	lastMigrations  int64
	lastThreads     []*workload.Thread
	appSwitches     int
	dvfsTransitions int64

	// powerScale is the resolved per-core dynamic-power multiplier.
	powerScale []float64

	// levelFreq[l] caches cfg.Levels[l].FrequencyGHz for the per-tick
	// frequency fill; levelDynCoef[l] caches the activity-independent dynamic
	// power factor Ceff*V^2*f of each level.
	levelFreq    []float64
	levelDynCoef []float64

	// leak incrementally evaluates the per-core leakage exponential (one
	// tracker per core; see power.LeakageTracker).
	leak []power.LeakageTracker

	// powerVec is the thermal network's power input; its non-core entries
	// stay zero. coreTemps backs Temperatures. dynPow is CorePower.
	powerVec  []float64
	coreTemps []float64
	dynPow    []float64
	// freqs[c] and coreLvl[c] are the frequency and operating point of core
	// c's current level, refreshed when freqsDirty.
	freqs   []float64
	coreLvl []power.Level
	// freqsDirty marks that a coreLevel changed and freqs must be refilled
	// from levelFreq before the next scheduler tick.
	freqsDirty bool

	// The last full tick's activity-dependent terms: each core's dynamic
	// power and busy time, and the dynamic total. A steady-window tick at
	// unchanged levels reuses them (see Step).
	dynW, busyDt []float64
	dynTotal     float64
	// workChanged records that the last Workload.Step reported a change, so
	// the next Step may not be skipped.
	workChanged bool
}

// New builds a platform executing the given workload. The workload's current
// threads are installed into the scheduler; governors default to ondemand.
func New(cfg Config, work workload.Workload) *Platform {
	return build(cfg, work, nil)
}

// NewWithStepper builds a platform like New but driven by an externally
// constructed thermal stepper — for example one wrapped to time or count its
// steps. The stepper must be sized for the configured floorplan and accept
// steps of cfg.TickS; cfg.Solver is ignored.
func NewWithStepper(cfg Config, work workload.Workload, st thermal.Stepper) *Platform {
	if st == nil {
		panic("platform: NewWithStepper: nil stepper")
	}
	return build(cfg, work, st)
}

// GridDims returns the effective core-grid dimensions for a config (the
// zero-value grid is the paper's 2x2 quad-core). Callers building their own
// stepper use this to construct a floorplan value-identical to the one build
// will create.
func GridDims(cfg Config) (rows, cols int) {
	rows, cols = cfg.GridRows, cfg.GridCols
	if rows == 0 && cols == 0 {
		rows, cols = 2, 2
	}
	return rows, cols
}

func build(cfg Config, work workload.Workload, st thermal.Stepper) *Platform {
	if cfg.TickS <= 0 {
		panic(fmt.Sprintf("platform: TickS must be positive, got %g", cfg.TickS))
	}
	if len(cfg.Levels) == 0 {
		panic("platform: need at least one DVFS level")
	}
	rows, cols := GridDims(cfg)
	fp := thermal.GridFloorplan(rows, cols, cfg.Floorplan)
	n := fp.NumCores()
	if cfg.Sched.NumCores != n {
		panic(fmt.Sprintf("platform: scheduler cores %d != floorplan cores %d", cfg.Sched.NumCores, n))
	}
	if st == nil {
		st = newStepper(cfg, fp.Net)
	} else if got := len(st.Temperatures()); got != fp.Net.NumNodes() {
		panic(fmt.Sprintf("platform: external stepper has %d nodes, floorplan needs %d", got, fp.Net.NumNodes()))
	}
	p := &Platform{
		cfg:          cfg,
		fp:           fp,
		solver:       st,
		sch:          sched.New(cfg.Sched),
		work:         work,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		coreLevel:    make([]int, n),
		govs:         make([]governor.Governor, n),
		busyAccum:    make([]float64, n),
		powerVec:     make([]float64, fp.Net.NumNodes()),
		coreTemps:    make([]float64, n),
		dynPow:       make([]float64, n),
		freqs:        make([]float64, n),
		coreLvl:      make([]power.Level, n),
		dynW:         make([]float64, n),
		busyDt:       make([]float64, n),
		levelFreq:    make([]float64, len(cfg.Levels)),
		levelDynCoef: make([]float64, len(cfg.Levels)),
		leak:         make([]power.LeakageTracker, n),
		// The initial thread installation is not an application switch.
		appSwitches: -1,
		// Force the initial freqs fill on the first Step.
		freqsDirty:  true,
		workChanged: true,
	}
	if cfg.CorePowerScale != nil && len(cfg.CorePowerScale) != n {
		panic(fmt.Sprintf("platform: CorePowerScale has %d entries for %d cores", len(cfg.CorePowerScale), n))
	}
	p.powerScale = make([]float64, n)
	for c := range p.powerScale {
		p.powerScale[c] = 1
		if cfg.CorePowerScale != nil && cfg.CorePowerScale[c] > 0 {
			p.powerScale[c] = cfg.CorePowerScale[c]
		}
	}
	for l, lv := range cfg.Levels {
		p.levelFreq[l] = lv.FrequencyGHz
		p.levelDynCoef[l] = cfg.Power.Ceff * lv.VoltageV * lv.VoltageV * lv.FrequencyGHz
	}
	for c := range p.leak {
		p.leak[c] = power.NewLeakageTracker(cfg.Power)
	}
	p.SetGovernorAll(governor.Ondemand, 0)
	p.installThreads()
	return p
}

// newStepper builds the configured thermal integrator. The fixed stepper is
// precomputed for the platform tick, the only step size Step ever uses.
func newStepper(cfg Config, net *thermal.Network) thermal.Stepper {
	if cfg.Solver == SolverImplicit {
		return thermal.NewImplicitSolver(net)
	}
	s, err := thermal.NewFixedStepper(net, cfg.TickS)
	if err != nil {
		panic(fmt.Sprintf("platform: %v", err)) // TickS validated above; floorplans are never singular
	}
	return s
}

// NumCores returns the core count.
func (p *Platform) NumCores() int { return p.fp.NumCores() }

// Levels returns the DVFS level table.
func (p *Platform) Levels() []power.Level { return p.cfg.Levels }

// Now returns the simulated time in seconds.
func (p *Platform) Now() float64 { return p.now }

// Workload returns the executing workload.
func (p *Platform) Workload() workload.Workload { return p.work }

// Scheduler exposes the underlying scheduler (for affinity control).
func (p *Platform) Scheduler() *sched.Scheduler { return p.sch }

// Meter returns the accumulated energy meter.
func (p *Platform) Meter() *power.Meter { return &p.meter }

// PerfCounters returns the accumulated perf counters.
func (p *Platform) PerfCounters() Counters { return p.counters }

// AppSwitches returns how many times the running thread set was replaced
// (application switches in a Sequence workload).
func (p *Platform) AppSwitches() int { return p.appSwitches }

// CoreLevels returns the current per-core DVFS level indices. The returned
// slice aliases internal state; callers must not modify it.
func (p *Platform) CoreLevels() []int { return p.coreLevel }

// SetGovernorAll installs the same governor kind on every core (how the
// paper's actions select cpufreq governors). fixedLevel is used only by the
// userspace governor.
func (p *Platform) SetGovernorAll(kind governor.Kind, fixedLevel int) {
	g := governor.New(kind, p.cfg.Levels, fixedLevel)
	for c := range p.govs {
		p.govs[c] = g
	}
}

// SetCoreGovernor installs a governor on a single core.
func (p *Platform) SetCoreGovernor(core int, kind governor.Kind, fixedLevel int) error {
	if core < 0 || core >= len(p.govs) {
		return fmt.Errorf("platform: core %d out of range", core)
	}
	p.govs[core] = governor.New(kind, p.cfg.Levels, fixedLevel)
	return nil
}

// SetCoreLevel forces a core's DVFS level immediately and pins it with a
// userspace governor, the interface the Ge & Qiu baseline controller uses.
func (p *Platform) SetCoreLevel(core, level int) error {
	if core < 0 || core >= len(p.coreLevel) {
		return fmt.Errorf("platform: core %d out of range", core)
	}
	if level < 0 || level >= len(p.cfg.Levels) {
		return fmt.Errorf("platform: level %d out of range (%d levels)", level, len(p.cfg.Levels))
	}
	if level != p.coreLevel[core] {
		p.chargeDVFSTransition(core)
	}
	p.coreLevel[core] = level
	p.freqsDirty = true
	p.govs[core] = governor.New(governor.Userspace, p.cfg.Levels, level)
	return nil
}

// DVFSTransitions returns the cumulative count of per-core frequency-level
// changes.
func (p *Platform) DVFSTransitions() int64 { return p.dvfsTransitions }

// chargeDVFSTransition counts a level change and, if configured, stalls the
// threads currently placed on the core for the transition latency.
func (p *Platform) chargeDVFSTransition(core int) {
	p.dvfsTransitions++
	if p.cfg.DVFSTransitionS <= 0 {
		return
	}
	for i := range p.sch.Threads() {
		if p.sch.Placement(i) == core {
			p.sch.AddStall(i, p.cfg.DVFSTransitionS)
		}
	}
}

// SetAffinity sets the affinity mask of thread i of the current thread set.
func (p *Platform) SetAffinity(i int, mask sched.AffinityMask) error {
	return p.sch.SetAffinity(i, mask)
}

// CorePower returns the most recent per-core total power draw (dynamic +
// leakage, watts). The returned slice aliases internal state; callers must
// not modify it.
func (p *Platform) CorePower() []float64 { return p.dynPow }

// Temperatures returns the exact current core temperatures (degrees
// Celsius). This is oracle access for tracing and ground-truth metrics; it
// charges no overhead. The returned slice is reused between calls.
func (p *Platform) Temperatures() []float64 {
	p.fp.CoreTemperatures(p.coreTemps, p.solver.Temperatures())
	return p.coreTemps
}

// ReadSensors models a controller sampling the on-board thermal sensors:
// quantized (and optionally noisy) temperatures, with the monitoring
// overhead charged to the perf counters. dst must hold NumCores entries;
// it is filled and returned.
func (p *Platform) ReadSensors(dst []float64) []float64 {
	exact := p.Temperatures()
	for i := range dst {
		v := exact[i]
		if p.cfg.SensorNoiseC > 0 {
			v += p.rng.NormFloat64() * p.cfg.SensorNoiseC
		}
		if p.cfg.SensorQuantC > 0 {
			v = math.Round(v/p.cfg.SensorQuantC) * p.cfg.SensorQuantC
		}
		dst[i] = v
	}
	p.counters.CacheMisses += p.cfg.SampleCacheMisses
	p.counters.PageFaults += p.cfg.SamplePageFaults
	return dst
}

// installThreads pushes the workload's current thread set into the scheduler
// if it changed (application switch in a Sequence).
func (p *Platform) installThreads() {
	threads := p.work.Threads()
	if sameThreads(threads, p.lastThreads) {
		return
	}
	p.sch.SetThreads(threads)
	p.lastThreads = threads
	p.appSwitches++
}

func sameThreads(a, b []*workload.Thread) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Step advances the platform by one tick: governors at their cadence, the
// scheduler, workload bookkeeping, then one pass over the core nodes that
// turns activity and temperature into power, and the thermal step.
//
// Inside the scheduler's steady window a tick replays the previous tick's
// activity and busy flags and no thread crosses a phase boundary. So when
// no DVFS level changed either, each core's dynamic power and busy time are
// the last full tick's, and the workload's bookkeeping is skipped while its
// last Step changed nothing (see workload.Workload). Every reused value was
// computed by the same operations from the same inputs, so the tick is
// bit-identical to recomputing it; leakage, the accumulators and the
// thermal step still run every tick.
func (p *Platform) Step() {
	dt := p.cfg.TickS

	// Governor decisions at their own cadence.
	p.govClock += dt
	if p.govClock >= p.cfg.GovernorIntervalS {
		for c := range p.govs {
			util := p.busyAccum[c] / p.govClock
			next := p.govs[c].Decide(util, p.coreLevel[c])
			if next != p.coreLevel[c] {
				p.chargeDVFSTransition(c)
				p.coreLevel[c] = next
				p.freqsDirty = true
			}
			p.busyAccum[c] = 0
		}
		p.govClock = 0
	}

	// Scheduler tick at current frequencies. freqs only needs refilling
	// when some core's DVFS level actually changed.
	levelsChanged := p.freqsDirty
	if levelsChanged {
		for c, l := range p.coreLevel {
			p.freqs[c] = p.levelFreq[l]
			p.coreLvl[c] = p.cfg.Levels[l]
		}
		p.freqsDirty = false
	}
	stats := p.sch.Tick(dt, p.freqs)
	// A replayed tick crossed no phase boundary, so after a Step that
	// changed nothing the workload's Step would change nothing again.
	if !stats.Replayed || p.workChanged {
		p.workChanged = p.work.Step()
		if p.workChanged {
			p.installThreads()
		}
	}

	// Charge migration counter costs.
	if m := p.sch.Migrations(); m != p.lastMigrations {
		d := m - p.lastMigrations
		p.counters.CacheMisses += d * p.cfg.MigrationCacheMisses
		p.counters.PageFaults += d * p.cfg.MigrationPageFaults
		p.lastMigrations = m
	}

	// A replayed tick at unchanged levels has the last full tick's dynamic
	// power and busy time.
	if !stats.Replayed || levelsChanged {
		p.activityPower(stats, dt)
	}
	// One pass over the core nodes: advance each core's leakage tracker at
	// its current temperature and inject dynamic plus leakage power.
	// powerVec's non-core entries are zero from construction and never
	// written.
	temps := p.solver.Temperatures()
	var statTotal float64
	for c, node := range p.fp.Cores {
		tr, lvl, t := &p.leak[c], p.coreLvl[c], temps[node]
		leak, ok := tr.Advance(lvl, t)
		if !ok {
			leak = tr.Power(lvl, t)
		}
		w := p.dynW[c] + leak
		p.dynPow[c] = w
		p.powerVec[node] = w
		statTotal += leak
		p.busyAccum[c] += p.busyDt[c]
	}
	if err := p.solver.Step(dt, p.powerVec); err != nil {
		panic(err) // sizes are fixed at construction; cannot happen
	}
	p.meter.Accumulate(p.dynTotal, statTotal, dt)
	p.now += dt
}

// activityPower recomputes each core's dynamic power and busy time from the
// scheduler's activity stats at the current levels, and their dynamic total.
func (p *Platform) activityPower(stats *sched.TickStats, dt float64) {
	floor := p.cfg.Power.ActivityFloor
	var total float64
	for c := range p.dynW {
		// Inline power.Model.DynamicPower using the cached per-level
		// coefficient.
		a := stats.CoreActivity[c]
		if a < floor {
			a = floor
		} else if a > 1 {
			a = 1
		}
		dyn := p.levelDynCoef[p.coreLevel[c]] * a * p.powerScale[c]
		p.dynW[c] = dyn
		total += dyn
		p.busyDt[c] = stats.CoreBusy[c] * dt
	}
	p.dynTotal = total
}

// Done reports whether the workload has finished.
func (p *Platform) Done() bool { return p.work.Done() }

// Tick returns the configured tick length in seconds.
func (p *Platform) Tick() float64 { return p.cfg.TickS }
