// Package sched implements the thread scheduler of the simulated platform:
// per-core run queues with equal timesharing, a Linux-like periodic load
// balancer that migrates threads between cores, and CPU-affinity masks that
// override the balancer — the control knob the paper's approach uses
// (pthread_setaffinity_np in Fig. 2).
package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// AffinityMask is a bitmask of allowed cores: bit c set means core c is
// allowed. The zero mask means "no restriction" (all cores allowed), which
// mirrors a full mask and keeps the zero value useful.
type AffinityMask uint32

// AllCores returns the mask allowing cores 0..n-1.
func AllCores(n int) AffinityMask { return AffinityMask(1<<uint(n)) - 1 }

// Allows reports whether core c is allowed by the mask (the zero mask allows
// every core).
func (m AffinityMask) Allows(c int) bool {
	if m == 0 {
		return true
	}
	return m&(1<<uint(c)) != 0
}

// Count returns the number of set bits (0 for the unrestricted zero mask).
func (m AffinityMask) Count() int {
	n := 0
	for v := m; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// String renders the mask like "{0,2}" or "{*}" for unrestricted.
func (m AffinityMask) String() string {
	if m == 0 {
		return "{*}"
	}
	s := "{"
	first := true
	for c := 0; c < 32; c++ {
		if m&(1<<uint(c)) != 0 {
			if !first {
				s += ","
			}
			s += fmt.Sprint(c)
			first = false
		}
	}
	return s + "}"
}

// Config parameterizes the scheduler.
type Config struct {
	// NumCores is the number of cores (the paper's platform has 4).
	NumCores int
	// BalanceInterval is how often the load balancer runs, seconds.
	BalanceInterval float64
	// MigrationStall is the cache-warmup stall a thread suffers after a
	// migration, in seconds of lost execution.
	MigrationStall float64
	// CoreSpeed optionally scales each core's execution rate, enabling
	// heterogeneous (big.LITTLE-style) chips — the extension named in the
	// paper's conclusion. nil or an entry of 0 means 1.0 (homogeneous).
	CoreSpeed []float64
	// Seed drives tie-breaking in placement decisions.
	Seed int64
}

// DefaultConfig returns the quad-core defaults.
func DefaultConfig() Config {
	return Config{
		NumCores:        4,
		BalanceInterval: 0.2,
		MigrationStall:  0.03,
		Seed:            1,
	}
}

// TickStats summarizes one scheduler tick for the power model and governors.
// The slices alias scheduler-owned scratch buffers: they are valid until the
// next Tick and must not be retained or modified by callers (the simulation
// steps hundreds of thousands of ticks per run, so per-tick allocation here
// was the hottest allocation site of the whole repository).
type TickStats struct {
	// CoreActivity is the switching activity per core in [0,1], the
	// share-weighted mean of the activities of the threads that ran.
	CoreActivity []float64
	// CoreBusy is 1 if the core had at least one runnable thread this tick,
	// else 0. Governors average this into a utilization estimate.
	CoreBusy []float64
	// WorkDone is the total work executed this tick, giga-cycles.
	WorkDone float64
	// Replayed reports a steady-window tick: CoreActivity and CoreBusy hold
	// the previous tick's values unchanged and no thread crossed a phase
	// boundary. A tick whose advance falls back to the full path (float
	// drift at a phase boundary) is not replayed.
	Replayed bool
}

// Scheduler owns thread placement. It is not safe for concurrent use.
type Scheduler struct {
	cfg     Config
	rng     *rand.Rand
	threads []*workload.Thread
	// placement[i] is the core of threads[i], or -1 if unplaced.
	placement []int
	// affinity[i] restricts placement of threads[i].
	affinity []AffinityMask
	// stall[i] is remaining migration stall time, seconds.
	stall        []float64
	sinceBalance float64
	migrations   int64
	// speed is the resolved per-core execution-rate multiplier.
	speed []float64

	// needPlace is set when a new thread set arrives; the placement scan in
	// Tick only needs to run until every non-done thread has a core.
	needPlace bool

	// scratch
	loads []int
	// stats is the reused result of Tick; act and busy back its slices.
	stats     TickStats
	act, busy []float64
	// share[c] is 1/loads[c] for the current tick (the timesharing factor).
	share []float64
	// recip[l] is 1/l for l up to the thread count, so the per-tick share
	// computation is a table lookup instead of a float division.
	recip []float64
	// run caches Thread.Runnable for the current tick.
	run []bool

	// Steady-tick fast path: while no thread crosses a phase boundary, no
	// stall is pending, no balancer run is due and the frequency vector is
	// unchanged, every tick produces bit-identical shares, activity and busy
	// stats — only the per-thread work accounting advances. A full (slow)
	// tick arms a window of such ticks; external mutations (SetThreads,
	// SetAffinity, AddStall) and any frequency change end it early.
	steady      bool
	steadyLeft  int            // fast ticks remaining in the armed window
	steadyDt    float64        // tick size the window was armed for
	steadyWork  float64        // WorkDone of one steady tick
	steadyFreqs []float64      // frequency vector the window was armed for
	steadyRun   []steadyThread // threads that advance during the window
	// tickMutated records that the current slow tick changed scheduling
	// state in a way that makes the next tick differ from this one: a stall
	// was consumed, a thread left the runnable set (finished or reached a
	// barrier), or a migration happened. armSteady refuses to arm when set.
	tickMutated bool
	// disableSteady forces every tick down the slow path (tests use it to
	// check the fast path is behavior-preserving).
	disableSteady bool
}

// New creates a scheduler. NumCores must be in [1, 32].
func New(cfg Config) *Scheduler {
	if cfg.NumCores < 1 || cfg.NumCores > 32 {
		panic(fmt.Sprintf("sched: NumCores must be 1..32, got %d", cfg.NumCores))
	}
	if cfg.CoreSpeed != nil && len(cfg.CoreSpeed) != cfg.NumCores {
		panic(fmt.Sprintf("sched: CoreSpeed has %d entries for %d cores", len(cfg.CoreSpeed), cfg.NumCores))
	}
	speed := make([]float64, cfg.NumCores)
	for c := range speed {
		speed[c] = 1
		if cfg.CoreSpeed != nil && cfg.CoreSpeed[c] > 0 {
			speed[c] = cfg.CoreSpeed[c]
		}
	}
	s := &Scheduler{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		speed: speed,
		loads: make([]int, cfg.NumCores),
		act:   make([]float64, cfg.NumCores),
		busy:  make([]float64, cfg.NumCores),
		share: make([]float64, cfg.NumCores),
	}
	// The Tick result permanently aliases the scratch buffers.
	s.stats = TickStats{CoreActivity: s.act, CoreBusy: s.busy}
	s.steadyFreqs = make([]float64, cfg.NumCores)
	return s
}

// CoreSpeed returns the effective execution-rate multiplier of core c.
func (s *Scheduler) CoreSpeed(c int) float64 { return s.speed[c] }

// NumCores returns the configured core count.
func (s *Scheduler) NumCores() int { return s.cfg.NumCores }

// Migrations returns the cumulative migration count (balancer + affinity
// enforced).
func (s *Scheduler) Migrations() int64 { return s.migrations }

// AddStall charges thread i with sec seconds of execution stall (e.g.
// controller decision overhead, cpufreq transition latency). Out-of-range
// indices are ignored.
func (s *Scheduler) AddStall(i int, sec float64) {
	if i >= 0 && i < len(s.stall) && sec > 0 {
		s.stall[i] += sec
		s.steady = false
	}
}

// SetThreads replaces the scheduled thread set (e.g. on application switch).
// All placements and affinities are reset; threads are placed lazily on
// their first runnable tick.
func (s *Scheduler) SetThreads(threads []*workload.Thread) {
	s.threads = threads
	s.placement = make([]int, len(threads))
	s.affinity = make([]AffinityMask, len(threads))
	s.stall = make([]float64, len(threads))
	s.run = make([]bool, len(threads))
	s.recip = make([]float64, len(threads)+1)
	for l := 1; l < len(s.recip); l++ {
		s.recip[l] = 1 / float64(l)
	}
	s.steadyRun = make([]steadyThread, 0, len(threads))
	s.steady = false
	for i := range s.placement {
		s.placement[i] = -1
	}
	s.sinceBalance = 0
	s.needPlace = true
}

// Threads returns the currently scheduled threads.
func (s *Scheduler) Threads() []*workload.Thread { return s.threads }

// Placement returns the core of thread i, or -1 if not yet placed.
func (s *Scheduler) Placement(i int) int { return s.placement[i] }

// Affinity returns the affinity mask of thread i.
func (s *Scheduler) Affinity(i int) AffinityMask { return s.affinity[i] }

// SetAffinity changes the affinity mask of thread i. If the thread's current
// core is no longer allowed it migrates immediately to the least-loaded
// allowed core (with migration stall), exactly like the kernel honoring a new
// mask. Returns an error for an out-of-range index or a mask with no core
// within range.
func (s *Scheduler) SetAffinity(i int, mask AffinityMask) error {
	if i < 0 || i >= len(s.threads) {
		return fmt.Errorf("sched: SetAffinity: thread index %d out of range (%d threads)", i, len(s.threads))
	}
	if mask != 0 {
		any := false
		for c := 0; c < s.cfg.NumCores; c++ {
			if mask.Allows(c) {
				any = true
				break
			}
		}
		if !any {
			return fmt.Errorf("sched: SetAffinity: mask %v allows no core below %d", mask, s.cfg.NumCores)
		}
	}
	s.affinity[i] = mask
	s.steady = false
	if cur := s.placement[i]; cur >= 0 && !mask.Allows(cur) {
		s.migrate(i, s.leastLoadedAllowed(mask))
	}
	return nil
}

// ClearAffinities resets every thread to unrestricted placement.
func (s *Scheduler) ClearAffinities() {
	for i := range s.affinity {
		s.affinity[i] = 0
	}
	s.steady = false
}

// computeLoads fills s.loads with the number of runnable placed threads per
// core.
func (s *Scheduler) computeLoads() {
	for c := range s.loads {
		s.loads[c] = 0
	}
	for i, th := range s.threads {
		if s.placement[i] >= 0 && th.Runnable() {
			s.loads[s.placement[i]]++
		}
	}
}

// leastLoadedAllowed picks the allowed core with the fewest runnable
// threads; ties break on lower index with occasional randomization so
// placement is not pathologically deterministic.
func (s *Scheduler) leastLoadedAllowed(mask AffinityMask) int {
	s.computeLoads()
	best, bestLoad := -1, int(^uint(0)>>1)
	for c := 0; c < s.cfg.NumCores; c++ {
		if !mask.Allows(c) {
			continue
		}
		l := s.loads[c]
		if l < bestLoad || (l == bestLoad && s.rng.Intn(4) == 0) {
			best, bestLoad = c, l
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

func (s *Scheduler) migrate(i, target int) {
	if s.placement[i] == target {
		return
	}
	if s.placement[i] >= 0 {
		// Only count real moves (initial placement is free).
		s.migrations++
		s.stall[i] += s.cfg.MigrationStall
	}
	s.placement[i] = target
	s.tickMutated = true
}

// Tick advances all threads by dt seconds with per-core frequencies
// freqGHz (len == NumCores). It returns per-core activity and busy stats;
// the returned value and its slices alias reused scratch (valid until the
// next Tick, callers must not retain or modify them).
func (s *Scheduler) Tick(dt float64, freqGHz []float64) *TickStats {
	if len(freqGHz) != s.cfg.NumCores {
		panic(fmt.Sprintf("sched: Tick: got %d frequencies for %d cores", len(freqGHz), s.cfg.NumCores))
	}
	// Steady-window fast path: shares, activity and busy flags are provably
	// identical to the previous tick, so only the work accounting advances.
	if s.steady && dt == s.steadyDt {
		ok := true
		for c, f := range freqGHz {
			if f != s.steadyFreqs[c] {
				ok = false
				break
			}
		}
		if ok {
			s.stats.Replayed = true
			for _, r := range s.steadyRun {
				if !r.th.AdvanceWithin(r.amt) {
					// A phase boundary inside the window despite the margin
					// (float drift): run the full advance and end the window
					// so the next tick recomputes.
					r.th.Advance(r.amt)
					s.steady = false
					s.stats.Replayed = false
				}
			}
			s.stats.WorkDone = s.steadyWork
			s.sinceBalance += dt
			s.steadyLeft--
			if s.steadyLeft <= 0 {
				s.steady = false
			}
			return &s.stats
		}
		s.steady = false
	}
	// Place any unplaced thread. Placements only reset when a new thread
	// set arrives, so after one full pass the scan is dead weight on the
	// per-tick hot path and is skipped until the next SetThreads.
	if s.needPlace {
		for i, th := range s.threads {
			if s.placement[i] < 0 && !th.Done() {
				s.placement[i] = s.leastLoadedAllowed(s.affinity[i])
			}
		}
		s.needPlace = false
	}

	s.tickMutated = false
	s.stats.Replayed = false
	// s.stats.CoreActivity/CoreBusy permanently alias s.act/s.busy (set in
	// New); only the scalar accumulators need resetting here. Rebuilding the
	// struct would store slice headers through the GC write barrier on every
	// tick.
	act, busy := s.act, s.busy
	for c := range act {
		act[c], busy[c] = 0, 0
		s.loads[c] = 0
	}
	// Count runnable threads per core for timesharing, caching Runnable so
	// the execution loop below doesn't query every thread twice.
	// Local copies of the per-thread slices let the compiler hoist the
	// bounds checks out of the two thread loops.
	nt := len(s.threads)
	placement, run, stall := s.placement[:nt], s.run[:nt], s.stall[:nt]
	for i, th := range s.threads {
		r := th.Runnable()
		run[i] = r
		if r && placement[i] >= 0 {
			s.loads[placement[i]]++
		}
	}
	for c, l := range s.loads {
		if l > 0 {
			s.share[c] = s.recip[l]
		}
	}
	var workDone float64
	for i, th := range s.threads {
		c := placement[i]
		if c < 0 || !run[i] {
			continue
		}
		share := s.share[c]
		if stall[i] > 0 {
			// Cache-warmup stall: occupies the core (busy, low activity)
			// but performs no work.
			stall[i] -= dt * share
			act[c] += share * 0.3
			busy[c] = 1
			s.tickMutated = true
			continue
		}
		done := th.Advance(freqGHz[c] * s.speed[c] * share * dt)
		workDone += done
		act[c] += share * th.Activity()
		busy[c] = 1
		if !th.Runnable() {
			// The thread finished or reached a barrier mid-tick: next tick's
			// loads and shares differ from this one's.
			s.tickMutated = true
		}
	}
	s.stats.WorkDone = workDone

	// Periodic load balancing (only for threads without a restricting
	// affinity mask — a set mask pins the thread wherever the user put it,
	// which is how the paper overrides the OS).
	s.sinceBalance += dt
	if s.sinceBalance >= s.cfg.BalanceInterval {
		s.sinceBalance = 0
		s.balance()
	}
	s.armSteady(dt, freqGHz)
	return &s.stats
}

// armSteady decides, at the end of a full tick, whether the coming ticks are
// provably identical in shares/activity/busy so Tick can take the steady
// fast path. The window is bounded by the nearest phase boundary of any
// running thread (with one tick of safety margin) and by the next balancer
// run; any stall, barrier wait or unplaced thread blocks arming, and
// SetThreads/SetAffinity/AddStall or a changed frequency vector end an armed
// window early.
func (s *Scheduler) armSteady(dt float64, freqGHz []float64) {
	s.steady = false
	if s.disableSteady || s.tickMutated || dt <= 0 {
		return
	}
	k := int(^uint(0) >> 1)
	if s.cfg.BalanceInterval > 0 {
		k = int((s.cfg.BalanceInterval-s.sinceBalance)/dt) - 1
	}
	s.steadyRun = s.steadyRun[:0]
	for i, th := range s.threads {
		if th.Done() {
			continue
		}
		if th.AtBarrier() {
			// A waiting thread contributes nothing and cannot wake during
			// the window: release requires every non-done thread at the
			// barrier, and the margin below keeps the running ones (there is
			// at least one, or steadyRun stays empty and we refuse) from
			// finishing their phase.
			continue
		}
		c := s.placement[i]
		if c < 0 || s.stall[i] > 0 {
			return
		}
		amt := freqGHz[c] * s.speed[c] * s.share[c] * dt
		if amt <= 0 {
			return
		}
		kp := int(th.RemainingInPhase()/amt) - 1
		if kp < k {
			k = kp
		}
		s.steadyRun = append(s.steadyRun, steadyThread{th, amt})
	}
	if k < 1 || len(s.steadyRun) == 0 {
		return
	}
	// WorkDone of a steady tick, accumulated in the same thread order as the
	// slow path so the float result is bit-identical.
	var wd float64
	for _, r := range s.steadyRun {
		wd += r.amt
	}
	s.steady = true
	s.steadyLeft = k
	s.steadyDt = dt
	s.steadyWork = wd
	copy(s.steadyFreqs, freqGHz)
}

// steadyThread is one thread that advances during a steady window, with its
// per-tick Advance amount.
type steadyThread struct {
	th  *workload.Thread
	amt float64
}

// balance migrates one thread from the busiest core to the idlest core if
// the imbalance is at least 2 runnable threads, mimicking the kernel's
// periodic load balancer.
func (s *Scheduler) balance() {
	s.computeLoads()
	busiest, idlest := 0, 0
	for c := 1; c < s.cfg.NumCores; c++ {
		if s.loads[c] > s.loads[busiest] {
			busiest = c
		}
		if s.loads[c] < s.loads[idlest] {
			idlest = c
		}
	}
	if s.loads[busiest]-s.loads[idlest] < 2 {
		return
	}
	// Move the first migratable runnable thread off the busiest core. A
	// thread may only move to a core its affinity mask allows (kernel
	// semantics: the balancer honors masks; single-core masks pin).
	for i, th := range s.threads {
		if s.placement[i] != busiest || !th.Runnable() {
			continue
		}
		if !s.affinity[i].Allows(idlest) {
			continue
		}
		s.migrate(i, idlest)
		return
	}
}
