package workload

// Concurrent runs several applications simultaneously on the platform — the
// extension the paper's conclusion names as future work ("the approach can
// be extended to consider concurrent applications"). The schedulable thread
// set is the union of all applications' threads; each application keeps its
// own barrier structure, so threads of one application never wait for
// another's.
type Concurrent struct {
	name    string
	apps    []*Application
	threads []*Thread
}

var _ Workload = (*Concurrent)(nil)

// NewConcurrent composes applications into a co-scheduled workload. The name
// joins the application names with "+".
func NewConcurrent(apps ...*Application) *Concurrent {
	if len(apps) == 0 {
		panic("workload: concurrent workload needs at least one application")
	}
	c := &Concurrent{apps: apps}
	c.name = apps[0].Name()
	for _, a := range apps[1:] {
		c.name += "+" + a.Name()
	}
	for _, a := range apps {
		c.threads = append(c.threads, a.Threads()...)
	}
	return c
}

// Name returns the composite name ("tachyon+mpeg_dec").
func (c *Concurrent) Name() string { return c.name }

// Apps returns the composed applications.
func (c *Concurrent) Apps() []*Application { return c.apps }

// Threads returns the union of all applications' threads. The slice is
// stable for the lifetime of the workload (finished threads simply stop
// being runnable), so the platform sees no thread-set change.
func (c *Concurrent) Threads() []*Thread { return c.threads }

// Step advances each application's barrier bookkeeping independently and
// reports whether any of them released a barrier.
func (c *Concurrent) Step() bool {
	changed := false
	for _, a := range c.apps {
		if a.Step() {
			changed = true
		}
	}
	return changed
}

// Done reports whether every application has completed.
func (c *Concurrent) Done() bool {
	for _, a := range c.apps {
		if !a.Done() {
			return false
		}
	}
	return true
}

// CompletedWork sums over all applications.
func (c *Concurrent) CompletedWork() float64 {
	var w float64
	for _, a := range c.apps {
		w += a.CompletedWork()
	}
	return w
}

// TotalWork sums over all applications.
func (c *Concurrent) TotalWork() float64 {
	var w float64
	for _, a := range c.apps {
		w += a.TotalWork()
	}
	return w
}

// PerfTarget sums the constraints of the applications still running: the
// chip must sustain the aggregate throughput.
func (c *Concurrent) PerfTarget() float64 {
	var pc float64
	for _, a := range c.apps {
		if !a.Done() {
			pc += a.PerfConstraint
		}
	}
	return pc
}

// Reset restores every application.
func (c *Concurrent) Reset() {
	for _, a := range c.apps {
		a.Reset()
	}
}
