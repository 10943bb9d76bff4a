package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/durable"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

// DefaultStallDeadline is the no-progress window after which a running job
// trips a stall alert when the flight recorder is enabled.
const DefaultStallDeadline = 5 * time.Minute

// EnableFlightRecorder arms per-job anomaly detection: every subsequent
// submission gets a flight recorder dumping into dir, thermal samples above
// ceilingC trip thermal-runaway alerts (0 disables the ceiling check), and a
// running job whose trace and cell progress both sit still for
// stallDeadline trips a stall alert (<= 0 selects DefaultStallDeadline).
// Call before serving traffic.
func (p *Pool) EnableFlightRecorder(dir string, ceilingC float64, stallDeadline time.Duration) {
	if stallDeadline <= 0 {
		stallDeadline = DefaultStallDeadline
	}
	p.flightDir = dir
	p.tempCeilingC = ceilingC
	p.stallDeadline = stallDeadline
}

// SetArchives attaches the archives that keep finished jobs' span traces
// and learning curves on disk, so a job restored from the journal after a
// restart still serves them; either may be nil. Evicting a job deletes both
// of its archives. Attach before serving traffic.
func (p *Pool) SetArchives(traces *durable.Archive[[]telemetry.Span], learning *durable.Archive[*rl.CurveSet]) {
	p.traces, p.learning = traces, learning
	p.store.SetOnEvict(func(id string) {
		if err := errors.Join(traces.Delete(id), learning.Delete(id)); err != nil {
			p.log.Warn("evicted job's archives not deleted", "job", id, "err", err)
		}
	})
}

// watchStall starts the job's stall watchdog, when the flight recorder is
// armed. Progress is any movement of the tracer's cursor (a committed span:
// an epoch, a window, a finished run or cell), which it reads without
// decoding a span, or of the cell done/failed counts; a running job that
// moves neither for the full deadline trips one stall alert (re-armed if
// progress later resumes). The watchdog exits with the job's context, which
// the pool cancels at finalization.
func (p *Pool) watchStall(jr *jobRun) {
	if jr.flight == nil || p.stallDeadline <= 0 {
		return
	}
	p.feederWG.Add(1)
	go func() {
		defer p.feederWG.Done()
		tick := time.NewTicker(p.stallDeadline / 4)
		defer tick.Stop()
		var lastSig int64 = -1
		lastChange := time.Now()
		tripped := false
		for {
			select {
			case <-jr.ctx.Done():
				return
			case <-tick.C:
				job, ok := p.store.Get(jr.id)
				if !ok || job.State.Terminal() {
					return
				}
				sig := jr.tracer.Cursor() + int64(job.Progress.DoneCells+job.Progress.FailedCells)<<32
				if sig != lastSig {
					lastSig, lastChange = sig, time.Now()
					tripped = false
					continue
				}
				if !tripped && job.State == StateRunning && time.Since(lastChange) >= p.stallDeadline {
					tripped = true
					stalled := time.Since(lastChange).Round(time.Second)
					p.log.Warn("job stalled", "job", jr.id, "stalled_for", stalled)
					jr.flight.Trip(telemetry.Anomaly{
						Kind:   telemetry.AnomalyStall,
						Job:    jr.id,
						Detail: fmt.Sprintf("no span or cell progress for %s", stalled),
					})
				}
			}
		}
	}()
}

// archive persists a finalized job's span trace and sampled learning curves
// to the attached archives. A job whose cells attach no learner archives no
// curves.
func (p *Pool) archive(jr *jobRun) {
	if p.traces != nil {
		if err := p.traces.Save(jr.id, jr.tracer.Snapshot()); err != nil {
			p.log.Warn("trace not archived", "job", jr.id, "err", err)
		}
	}
	if p.learning != nil && jr.curves.Len() > 0 {
		if err := p.learning.Save(jr.id, jr.curves); err != nil {
			p.log.Warn("learning curves not archived", "job", jr.id, "err", err)
		}
	}
}
