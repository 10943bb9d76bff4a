package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Planner decomposes a campaign into independently runnable cells. The
// default is campaign.Cells (experiments.Cells plus tournament expansion);
// tests swap in synthetic plans to exercise panic recovery and cancellation
// without running the simulator.
type Planner func(cfg experiments.Config, id string) ([]experiments.Cell, experiments.Assemble, error)

// CellRunner executes one planned cell of a job and reports which node ran
// it ("" for the local process). The default runs the cell in-process; a
// cluster coordinator swaps in a runner that leases the cell out to a remote
// worker and blocks until the result streams back (or the lease expires and
// the cell is reassigned). The returned row must be the cell's typed row —
// bit-identical to what cell.Run would produce locally.
type CellRunner func(ctx context.Context, job string, spec Spec, idx int, cell experiments.Cell) (row any, ranBy string, err error)

// Pool executes job cells on a bounded set of workers. Cells from all jobs
// share one queue, so a wide campaign fans out across every worker while
// several narrow ones interleave fairly.
type Pool struct {
	store   *Store
	workers int
	plan    Planner
	// runner executes one cell; defaults to in-process execution. A cluster
	// coordinator replaces it with remote dispatch (SetCellRunner).
	runner CellRunner
	// maxQueuedCells, when positive, is the admission limit: a submission
	// arriving while at least this many cells are queued is rejected with
	// an OverloadedError (the HTTP layer maps it to 429 + Retry-After).
	maxQueuedCells int64

	// tasks is an unbuffered handoff: a cell is either held by its job's
	// feeder or being executed by a worker, never parked in a buffer where
	// shutdown could strand it.
	tasks    chan task
	ctx      context.Context
	cancel   context.CancelFunc
	workerWG sync.WaitGroup
	feederWG sync.WaitGroup

	busy          atomic.Int64
	cellsDone     atomic.Int64
	cellsFailed   atomic.Int64
	jobsSubmitted atomic.Int64
	jobsRejected  atomic.Int64
	// queued counts tasks (runs) accepted but not yet picked up by a worker.
	queued atomic.Int64

	// checkpoints, when attached, resolves warm_start submissions to stored
	// Q-table checkpoints.
	checkpoints *durable.CheckpointStore

	// traces and learning, when attached (SetArchives), archive each
	// finished job's span trace and sampled learning curves so they outlive
	// a restart.
	traces   *durable.Archive[[]telemetry.Span]
	learning *durable.Archive[*rl.CurveSet]

	// Flight-recorder configuration (EnableFlightRecorder): anomaly dumps
	// land in flightDir, temperatures above tempCeilingC trip thermal-runaway
	// alerts, and a running job making no progress for stallDeadline trips a
	// stall alert.
	flightDir     string
	tempCeilingC  float64
	stallDeadline time.Duration

	// reg is the pool-owned metrics registry; the HTTP server adds its own
	// request metrics to it and exposes it on /metrics.
	reg      *telemetry.Registry
	cellWait *telemetry.Histogram
	cellRun  *telemetry.Histogram
	log      *slog.Logger
}

// jobRun is the pool-side state shared by one job's cells.
type jobRun struct {
	id       string
	spec     Spec
	ctx      context.Context
	cancel   context.CancelFunc
	cells    []experiments.Cell
	assemble experiments.Assemble
	// submittedAt anchors the per-cell queue wait-time measurement.
	submittedAt time.Time
	observation
	// jobSpan is the root of the job's span hierarchy.
	jobSpan telemetry.SpanID

	mu   sync.Mutex
	rows []any
	errs []error
	// remaining counts the tasks not yet finished.
	remaining int

	startOnce sync.Once
}

// task is one run of a job: cell idx, executed through the configured
// CellRunner (in-process or cluster dispatch), and the uncommitted cells
// that share its run (experiments.Cell.Shares), which commit with it.
type task struct {
	jr     *jobRun
	idx    int
	cell   experiments.Cell
	shared []int
}

// NewPool builds a pool over store with the given worker count;
// workers <= 0 selects runtime.NumCPU(). Call Start before Submit.
func NewPool(store *Store, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		store:   store,
		workers: workers,
		plan:    campaign.Cells,
		tasks:   make(chan task),
		ctx:     ctx,
		cancel:  cancel,
		reg:     telemetry.NewRegistry(),
		log:     telemetry.Component("pool"),
	}
	p.runner = func(ctx context.Context, _ string, _ Spec, _ int, cell experiments.Cell) (any, string, error) {
		row, err := experiments.RunCell(ctx, cell)
		return row, "", err
	}
	p.registerMetrics()
	return p
}

// DefaultBatchLanes is the number of cells a worker task carries. The pool
// never coalesces cells: every task is one cell, so the constant is 1. It
// stays exported for tools that record it as server metadata.
const DefaultBatchLanes = 1

// SetCellRunner replaces in-process cell execution (e.g. with a cluster
// coordinator's remote dispatch). Set before Start.
func (p *Pool) SetCellRunner(r CellRunner) { p.runner = r }

// SetPlanner replaces the campaign planner (tests use synthetic plans; the
// cluster harness uses it to exercise dispatch without the simulator). Set
// before Start.
func (p *Pool) SetPlanner(pl Planner) { p.plan = pl }

// SetMaxQueuedCells installs the admission limit: submissions arriving while
// at least n cells are queued fail with an OverloadedError. n <= 0 disables
// admission control (the default). Set before serving traffic.
func (p *Pool) SetMaxQueuedCells(n int) { p.maxQueuedCells = int64(n) }

// Registry returns the pool-owned metrics registry (job, cell and worker
// metrics; the HTTP layer adds its request metrics to the same registry).
func (p *Pool) Registry() *telemetry.Registry { return p.reg }

// Start launches the workers.
func (p *Pool) Start() {
	for i := 0; i < p.workers; i++ {
		p.workerWG.Add(1)
		go p.worker()
	}
}

// Stop cancels every job and blocks until all feeders and workers exit.
// Jobs still in flight finalize as cancelled.
func (p *Pool) Stop() {
	p.cancel()
	p.feederWG.Wait()
	p.workerWG.Wait()
}

// Submit validates spec, plans its cells and enqueues them, returning the
// pending job snapshot immediately.
func (p *Pool) Submit(spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	if err := p.admit(); err != nil {
		return Job{}, err
	}
	cfg := spec.Config()
	if err := p.applyWarmStart(&cfg, spec.Experiment, spec.WarmStart); err != nil {
		return Job{}, err
	}
	obs := p.observe(&cfg)
	cells, assemble, err := p.plan(cfg, spec.Experiment)
	if err != nil {
		return Job{}, err
	}
	job := p.store.Create(spec, len(cells))
	p.jobsSubmitted.Add(1)
	p.launch(job.ID, spec, obs, cells, assemble, make([]any, len(cells)), make([]error, len(cells)),
		telemetry.Bool("quick", spec.Quick))
	p.log.Info("job submitted", "job", job.ID, "experiment", spec.Experiment, "cells", len(cells), "quick", spec.Quick, "warm_start", spec.WarmStart)
	return job, nil
}

// observation is one job's observation state: the span tracer (whose epoch
// spans are the job's decision trace, and whose cursor is the stall
// watchdog's progress signal), the anomaly flight recorder (nil when
// disabled) and the learning-curve set, which the learning endpoint serves
// live and finalize archives.
type observation struct {
	tracer *telemetry.Tracer
	flight *telemetry.FlightRecorder
	curves *rl.CurveSet
}

// observe builds a job's observation state and arms it on cfg. Call it
// before planning, since cells capture the config by value. Every sampled
// run's curve reaches the one learning observer (tournament cells stamp it
// with their seed and repeat first).
func (p *Pool) observe(cfg *experiments.Config) observation {
	obs := observation{
		tracer: telemetry.NewTracer(0),
		curves: rl.NewCurveSet(),
	}
	if p.flightDir != "" {
		obs.flight = telemetry.NewFlightRecorder(p.flightDir, obs.tracer, p.reg)
		cfg.Run.Anomalies = obs.flight
		cfg.Run.TempCeilingC = p.tempCeilingC
	}
	cfg.Run.LearningObserver = func(c rl.RunCurve, _ sim.Policy) { obs.curves.Add(c) }
	return obs
}

// launch starts a planned job: it binds the job's context and observation
// state to the store, opens the job span (with attrs after the experiment,
// cell and run counts) and feeds one task per run that has a cell with no
// committed outcome in rows or errs — every run for a new job, the
// unjournaled ones for a resumed job. A cell sharing a run whose own cell is
// already committed (a journal that ends between the two records) commits
// here, from that outcome. It returns how many cells it left to the tasks.
func (p *Pool) launch(id string, spec Spec, obs observation, cells []experiments.Cell, assemble experiments.Assemble, rows []any, errs []error, attrs ...telemetry.Attr) int {
	jctx, jcancel := context.WithCancel(p.ctx)
	p.store.Bind(id, jcancel, obs.tracer, obs.curves)
	obs.flight.SetJob(id)
	jr := &jobRun{
		id:          id,
		spec:        spec,
		ctx:         jctx,
		cancel:      jcancel,
		cells:       cells,
		assemble:    assemble,
		submittedAt: time.Now(),
		observation: obs,
		rows:        rows,
		errs:        errs,
	}
	var tasks []task
	taskOf := map[int]int{} // running cell -> its task's index in tasks
	runs, pending := 0, 0
	for i, cell := range cells {
		sh := cell.Shares
		if sh == nil {
			runs++
		}
		if rows[i] != nil || errs[i] != nil {
			continue
		}
		if sh == nil {
			taskOf[i] = len(tasks)
			tasks = append(tasks, task{jr: jr, idx: i, cell: cell})
			pending++
		} else if t, ok := taskOf[sh.Cell]; ok {
			tasks[t].shared = append(tasks[t].shared, i)
			pending++
		} else {
			row, err := experiments.SharedOutcome(cells, i, rows[sh.Cell], errs[sh.Cell])
			p.commit(jr, i, row, err, "")
		}
	}
	jr.jobSpan = obs.tracer.Start(0, telemetry.KindJob, id, append([]telemetry.Attr{
		telemetry.Str("experiment", spec.Experiment),
		telemetry.Num("cells", float64(len(cells))),
		telemetry.Num("runs", float64(runs)),
	}, attrs...)...)
	p.watchStall(jr)
	jr.remaining = len(tasks)
	p.queued.Add(int64(len(tasks)))
	p.feederWG.Add(1)
	go p.feed(jr, tasks)
	return pending
}

// Wait blocks until job id reaches a terminal state (returning its final
// snapshot) or ctx expires.
func (p *Pool) Wait(ctx context.Context, id string) (Job, error) {
	done := p.store.Done(id)
	if done == nil {
		return Job{}, fmt.Errorf("service: wait on unknown job %s", id)
	}
	select {
	case <-done:
		job, _ := p.store.Get(id)
		return job, nil
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
}

// feed hands a job's tasks to the workers in order, bailing out (and
// accounting the unfed remainder) as soon as the job is cancelled. A resumed
// job feeds only its not-yet-journaled cells, so tasks may be a sparse
// subset of the original plan.
func (p *Pool) feed(jr *jobRun, tasks []task) {
	defer p.feederWG.Done()
	if len(tasks) == 0 {
		p.finalize(jr)
		return
	}
	for i, t := range tasks {
		select {
		case <-jr.ctx.Done():
			// The unfed remainder never reaches a worker; drain it from the
			// queue-depth gauge as it is accounted.
			for _, rest := range tasks[i:] {
				p.queued.Add(-1)
				p.finishTask(rest, nil, "", jr.ctx.Err(), true)
			}
			return
		case p.tasks <- t:
		}
	}
}

// worker executes handed-off cells until the pool shuts down.
func (p *Pool) worker() {
	defer p.workerWG.Done()
	for {
		select {
		case <-p.ctx.Done():
			return
		case t := <-p.tasks:
			p.runTask(t)
		}
	}
}

// runTask executes one task with panic recovery and accounts the outcome.
func (p *Pool) runTask(t task) {
	p.queued.Add(-1)
	p.cellWait.Observe(time.Since(t.jr.submittedAt).Seconds())
	t.jr.startOnce.Do(func() {
		// A job racing its own cancellation may no longer start; its cells
		// are then skipped through the context check below.
		_ = p.store.Start(t.jr.id)
	})
	if err := t.jr.ctx.Err(); err != nil {
		p.finishTask(t, nil, "", err, true)
		return
	}
	p.busy.Add(1)
	start := time.Now()
	cellSpan := t.jr.tracer.Start(t.jr.jobSpan, telemetry.KindCell, t.cell.Key)
	// The cell's first phase is the queue wait it just finished: submission
	// to pickup, recorded retroactively so the trace timeline starts at
	// submission rather than at first execution.
	t.jr.tracer.Record(cellSpan, telemetry.KindPhase, "queue-wait",
		t.jr.submittedAt.UnixMicro(), start.Sub(t.jr.submittedAt).Microseconds())
	ctx := telemetry.ContextWithSpan(t.jr.ctx, t.jr.tracer, cellSpan)
	var row any
	var ranBy string
	var err error
	// Label the worker goroutine for the duration of the cell, so CPU and
	// goroutine profiles attribute samples to (job, cell).
	pprof.Do(ctx, pprof.Labels("job", t.jr.id, "cell", t.cell.Key), func(ctx context.Context) {
		row, ranBy, err = p.runner(ctx, t.jr.id, t.jr.spec, t.idx, t.cell)
	})
	if err != nil {
		t.jr.tracer.End(cellSpan, telemetry.Str("error", err.Error()))
	} else if ranBy != "" {
		t.jr.tracer.End(cellSpan, telemetry.Str("worker", ranBy))
	} else {
		t.jr.tracer.End(cellSpan)
	}
	// Hold the cell's spans encoded from here on: a finished job keeps its
	// trace as sealed span batches, about a fifth of their decoded size.
	t.jr.tracer.Seal()
	p.cellRun.Observe(time.Since(start).Seconds())
	p.busy.Add(-1)
	// An error caused by the job's own cancellation is a skip, not a
	// failure: the job finalizes as cancelled either way.
	skipped := err != nil && t.jr.ctx.Err() != nil
	if err != nil && !skipped {
		p.log.Warn("cell failed", "cell", t.cell.Key, "job", t.jr.id, "err", err)
	}
	p.finishTask(t, row, ranBy, err, skipped)
}

// finishTask commits a task's run outcome to its cell and to every cell
// sharing the run, then finalizes the job when it was the last task
// outstanding. A skipped run commits nothing, leaving its cells to a resume.
// ranBy attributes the outcomes to the cluster worker that ran them (""
// in-process).
func (p *Pool) finishTask(t task, row any, ranBy string, err error, skipped bool) {
	jr := t.jr
	if !skipped {
		// Commit before the task counts against remaining: whichever task
		// finishes last writes the job's terminal record, so it must find
		// every cell already journaled, and every cell a client ever saw
		// counted is recoverable after a crash.
		p.commit(jr, t.idx, row, err, ranBy)
		for _, i := range t.shared {
			srow, serr := experiments.SharedOutcome(jr.cells, i, row, err)
			p.commit(jr, i, srow, serr, ranBy)
		}
	}
	jr.mu.Lock()
	jr.remaining--
	last := jr.remaining == 0
	jr.mu.Unlock()
	if last {
		p.finalize(jr)
	}
}

// commit journals one cell's outcome (row or error), credits it to the
// job's progress and keeps it for assembly.
func (p *Pool) commit(jr *jobRun, idx int, row any, err error, ranBy string) {
	p.store.CellDone(jr.id, idx, row, err, ranBy)
	if err == nil {
		p.cellsDone.Add(1)
		p.store.AddProgress(jr.id, 1, 0)
	} else {
		p.cellsFailed.Add(1)
		p.store.AddProgress(jr.id, 0, 1)
	}
	jr.mu.Lock()
	if err == nil {
		jr.rows[idx] = row
	} else {
		jr.errs[idx] = err
	}
	jr.mu.Unlock()
}

// finalize assembles the job's rows in cell order and commits the terminal
// state: cancelled if its context was cut or cancellation was requested,
// failed if any cell errored, done otherwise. Partial rows survive alongside
// the joined errors. The store latches the state first, so a DELETE landing
// mid-finalize cannot change it; the job span ends with it and the archives
// are written before the store publishes it, so a job that reads as
// finished has all of them in place.
func (p *Pool) finalize(jr *jobRun) {
	defer jr.cancel()
	rows := jr.assemble(jr.rows)
	err := errors.Join(jr.errs...)
	cancelled := jr.ctx.Err() != nil
	state := p.store.Latch(jr.id, err, cancelled)
	jr.tracer.End(jr.jobSpan, telemetry.Str("state", string(state)))
	p.archive(jr)
	jr.tracer.Seal()
	p.store.Finish(jr.id, rows, err, cancelled)
	if job, ok := p.store.Get(jr.id); ok {
		p.log.Info("job finished", "job", jr.id, "state", string(job.State),
			"done", job.Progress.DoneCells, "failed", job.Progress.FailedCells, "wall_s", job.WallClockS)
	}
}

// OverloadedError is returned by Submit when the queued-cell depth has
// reached the admission limit. The HTTP layer maps it to 429 with a
// Retry-After hint, so open-loop clients back off instead of deepening the
// queue; everything already accepted keeps running.
type OverloadedError struct {
	// Queued and Limit are the queue depth observed at rejection and the
	// configured admission limit.
	Queued, Limit int
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: overloaded: %d cells queued (admission limit %d), retry in %s",
		e.Queued, e.Limit, e.RetryAfter)
}

// admit applies queue-depth admission control. The Retry-After hint scales
// with how many queue "turns" of the configured concurrency stand between
// the caller and a free slot, clamped to [1s, 30s].
func (p *Pool) admit() error {
	if p.maxQueuedCells <= 0 {
		return nil
	}
	q := p.queued.Load()
	if q < p.maxQueuedCells {
		return nil
	}
	p.jobsRejected.Add(1)
	retry := time.Duration(1+q/int64(p.workers)) * time.Second
	if retry > 30*time.Second {
		retry = 30 * time.Second
	}
	return &OverloadedError{Queued: int(q), Limit: int(p.maxQueuedCells), RetryAfter: retry}
}

// Workers is the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// BusyWorkers is the number of workers currently executing a cell.
func (p *Pool) BusyWorkers() int64 { return p.busy.Load() }

// CellsCompleted is the lifetime count of successfully completed cells,
// counting each cell that shares another cell's run.
func (p *Pool) CellsCompleted() int64 { return p.cellsDone.Load() }

// CellsFailed is the lifetime count of failed cells.
func (p *Pool) CellsFailed() int64 { return p.cellsFailed.Load() }

// JobsSubmitted is the lifetime count of accepted submissions.
func (p *Pool) JobsSubmitted() int64 { return p.jobsSubmitted.Load() }

// JobsRejected is the lifetime count of submissions refused by admission
// control.
func (p *Pool) JobsRejected() int64 { return p.jobsRejected.Load() }
