package workload

import "fmt"

// Workload is what the simulated platform executes: a set of currently
// active threads plus the bookkeeping (barriers, application switching)
// advanced once per simulation tick.
type Workload interface {
	// Name identifies the workload for reports.
	Name() string
	// Threads returns the currently active threads. The platform schedules
	// exactly these; the slice changes only in a Step that reports a change
	// (application switch).
	Threads() []*Thread
	// Step performs barrier release and application-switch bookkeeping
	// once per simulation tick, after work advancement, and reports whether
	// it changed anything: released a barrier or moved to the next
	// application.
	//
	// Both depend only on which threads are done or waiting at a barrier,
	// and only a thread crossing a phase boundary (Thread.Advance finishing
	// a phase) changes that. So once a Step reports false, every later Step
	// reports false and changes nothing until some thread crosses a phase
	// boundary: a caller that knows no thread has crossed one since may
	// skip the call, and keep the Threads it holds.
	Step() bool
	// Done reports whether the entire workload has completed.
	Done() bool
	// CompletedWork returns total executed work in giga-cycles, the basis
	// for throughput/performance measurements.
	CompletedWork() float64
	// TotalWork returns the total work of the workload in giga-cycles.
	TotalWork() float64
	// PerfTarget returns the current performance constraint Pc in
	// giga-cycles per second (Eq. 8); zero means unconstrained.
	PerfTarget() float64
	// Reset restores the workload to its initial state.
	Reset()
}

// Application is a single multi-threaded program whose threads synchronize
// at shared barriers after every Sync phase.
type Application struct {
	name    string
	threads []*Thread
	// PerfConstraint is the performance constraint Pc of the reward
	// function (Eq. 8), expressed as a required throughput in giga-cycles
	// per second. Zero means unconstrained.
	PerfConstraint float64
}

var _ Workload = (*Application)(nil)

// NewApplication groups threads into an application. All threads should have
// the same number of phases so that barriers line up; NewApplication panics
// otherwise, since generators control this statically.
func NewApplication(name string, threads []*Thread, perfConstraint float64) *Application {
	if len(threads) == 0 {
		panic("workload: application needs at least one thread")
	}
	n := threads[0].NumPhases()
	for _, t := range threads {
		if t.NumPhases() != n {
			panic(fmt.Sprintf("workload: %s: thread %d has %d phases, want %d", name, t.ID, t.NumPhases(), n))
		}
	}
	return &Application{name: name, threads: threads, PerfConstraint: perfConstraint}
}

// Name returns the application name.
func (a *Application) Name() string { return a.name }

// PerfTarget returns the application's throughput constraint Pc.
func (a *Application) PerfTarget() float64 { return a.PerfConstraint }

// Threads returns all threads of the application.
func (a *Application) Threads() []*Thread { return a.threads }

// Step releases barriers: when every unfinished thread is blocked at its
// barrier (they all share the same script structure), all are released.
// Finished threads no longer participate. It reports whether it released.
func (a *Application) Step() bool {
	anyWaiting := false
	for _, t := range a.threads {
		if t.Done() {
			continue
		}
		if !t.AtBarrier() {
			return false // someone is still computing; barrier not complete
		}
		anyWaiting = true
	}
	if !anyWaiting {
		return false
	}
	for _, t := range a.threads {
		t.ReleaseBarrier()
	}
	return true
}

// Done reports whether every thread has finished.
func (a *Application) Done() bool {
	for _, t := range a.threads {
		if !t.Done() {
			return false
		}
	}
	return true
}

// CompletedWork sums completed work over all threads.
func (a *Application) CompletedWork() float64 {
	var w float64
	for _, t := range a.threads {
		w += t.CompletedWork()
	}
	return w
}

// TotalWork sums script work over all threads.
func (a *Application) TotalWork() float64 {
	var w float64
	for _, t := range a.threads {
		w += t.TotalWork()
	}
	return w
}

// Reset restores every thread to the start of its script.
func (a *Application) Reset() {
	for _, t := range a.threads {
		t.Reset()
	}
}

// Sequence runs applications back to back, modeling the paper's
// inter-application scenarios (e.g. "mpegdec-tachyon"). The next application
// starts once the previous one completes; the platform observes the thread
// set change, which is exactly the autonomously detectable application
// switch the proposed controller reacts to.
type Sequence struct {
	name string
	apps []*Application
	cur  int
	// completedBase accumulates work of finished applications.
	completedBase float64
	// SwitchNotify, if non-nil, is invoked when execution moves to the next
	// application. The modified Ge et al. baseline uses it as the explicit
	// application-layer switch indication described in Section 6.2.
	SwitchNotify func(next *Application)
}

var _ Workload = (*Sequence)(nil)

// NewSequence composes applications into a back-to-back scenario. The name
// follows the paper's convention "appA-appB-...".
func NewSequence(apps ...*Application) *Sequence {
	if len(apps) == 0 {
		panic("workload: sequence needs at least one application")
	}
	name := apps[0].Name()
	for _, a := range apps[1:] {
		name += "-" + a.Name()
	}
	return &Sequence{name: name, apps: apps}
}

// Name returns the scenario name ("appA-appB").
func (s *Sequence) Name() string { return s.name }

// Current returns the application currently executing (the last one after
// completion).
func (s *Sequence) Current() *Application {
	if s.cur >= len(s.apps) {
		return s.apps[len(s.apps)-1]
	}
	return s.apps[s.cur]
}

// Threads returns the threads of the currently running application.
func (s *Sequence) Threads() []*Thread { return s.Current().Threads() }

// PerfTarget returns the constraint of the currently running application.
func (s *Sequence) PerfTarget() float64 { return s.Current().PerfConstraint }

// Step advances barriers of the current application and switches to the next
// application on completion. It reports whether it released a barrier or
// switched.
func (s *Sequence) Step() bool {
	if s.cur >= len(s.apps) {
		return false
	}
	app := s.apps[s.cur]
	released := app.Step()
	if !app.Done() {
		return released
	}
	s.completedBase += app.CompletedWork()
	s.cur++
	if s.cur < len(s.apps) && s.SwitchNotify != nil {
		s.SwitchNotify(s.apps[s.cur])
	}
	return true
}

// Done reports whether all applications have completed.
func (s *Sequence) Done() bool { return s.cur >= len(s.apps) }

// CompletedWork sums work over finished applications plus the current one.
func (s *Sequence) CompletedWork() float64 {
	if s.cur >= len(s.apps) {
		return s.completedBase
	}
	return s.completedBase + s.apps[s.cur].CompletedWork()
}

// TotalWork sums over all applications in the sequence.
func (s *Sequence) TotalWork() float64 {
	var w float64
	for _, a := range s.apps {
		w += a.TotalWork()
	}
	return w
}

// Reset restores all applications and rewinds to the first.
func (s *Sequence) Reset() {
	for _, a := range s.apps {
		a.Reset()
	}
	s.cur = 0
	s.completedBase = 0
}
