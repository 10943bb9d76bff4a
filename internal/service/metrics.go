package service

import (
	"repro/internal/telemetry"
)

// allStates enumerates the job lifecycle for per-state metrics, in
// exposition order.
var allStates = []State{StatePending, StateRunning, StateDone, StateFailed, StateCancelled}

// registerMetrics wires the pool's and store's state into the pool-owned
// registry: lifetime counters are projections of the pool's atomics, the
// per-state job gauges are refreshed from the store at gather time, and the
// wait/run histograms are observed directly by the workers.
func (p *Pool) registerMetrics() {
	reg := p.reg
	reg.CounterFunc("thermserved_jobs_submitted_total", "Accepted job submissions.",
		func() float64 { return float64(p.JobsSubmitted()) })
	reg.CounterFunc("thermserved_jobs_rejected_total", "Submissions refused by queue-depth admission control (HTTP 429).",
		func() float64 { return float64(p.JobsRejected()) })
	reg.CounterFunc("thermserved_cells_completed_total", "Cells completed successfully (a cell sharing another cell's run completes with it).",
		func() float64 { return float64(p.CellsCompleted()) })
	reg.CounterFunc("thermserved_cells_failed_total", "Cells that failed (a cell sharing a failed run fails with it).",
		func() float64 { return float64(p.CellsFailed()) })
	reg.GaugeFunc("thermserved_workers", "Configured worker count.",
		func() float64 { return float64(p.Workers()) })
	reg.GaugeFunc("thermserved_workers_busy", "Workers currently executing a cell.",
		func() float64 { return float64(p.BusyWorkers()) })
	reg.GaugeFunc("thermserved_queue_depth", "Runs accepted but not yet picked up by a worker (one per cell, except cells sharing another cell's run).",
		func() float64 { return float64(p.queued.Load()) })
	p.cellWait = reg.Histogram("thermserved_cell_wait_seconds",
		"Time from job submission to a cell starting on a worker.", telemetry.DefBuckets)
	p.cellRun = reg.Histogram("thermserved_cell_run_seconds",
		"Wall-clock execution time of one cell's run.", telemetry.DefBuckets)

	gauges := make(map[State]*telemetry.Gauge, len(allStates))
	for _, st := range allStates {
		gauges[st] = reg.Gauge("thermserved_jobs", "Live jobs by lifecycle state.", telemetry.L("state", string(st)))
	}
	reg.OnGather(func() {
		counts := p.store.CountByState()
		for st, g := range gauges {
			g.Set(float64(counts[st]))
		}
	})
}
