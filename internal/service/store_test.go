package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/durable"
)

// fakeClock drives a store's time by hand.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestStore(ttl time.Duration) (*Store, *fakeClock) {
	s := NewStore(ttl)
	c := &fakeClock{t: time.Unix(1700000000, 0)}
	s.now = c.now
	return s, c
}

func TestStoreLifecycle(t *testing.T) {
	s, _ := newTestStore(time.Hour)
	job := s.Create(Spec{Experiment: "suite", Quick: true}, 8)
	if job.State != StatePending || job.Progress.TotalCells != 8 {
		t.Fatalf("unexpected created job: %+v", job)
	}
	if _, ok := s.Get(job.ID); !ok {
		t.Fatal("created job not gettable")
	}
	if err := s.Start(job.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(job.ID); err != nil {
		t.Errorf("starting a running job should be idempotent: %v", err)
	}
	s.AddProgress(job.ID, 3, 1)
	got, _ := s.Get(job.ID)
	if got.State != StateRunning || got.Progress.DoneCells != 3 || got.Progress.FailedCells != 1 {
		t.Fatalf("progress lost: %+v", got)
	}
	s.Finish(job.ID, []int{1, 2, 3}, nil, false)
	got, _ = s.Get(job.ID)
	if got.State != StateDone || got.FinishedAt.IsZero() {
		t.Fatalf("finish broken: %+v", got)
	}
	if rows, ok := s.Rows(job.ID); !ok || rows == nil {
		t.Error("rows missing after finish")
	}
	select {
	case <-s.Done(job.ID):
	default:
		t.Error("done channel should be closed")
	}
	// Terminal is sticky: a late Finish cannot resurrect the job.
	s.Finish(job.ID, nil, errors.New("late"), false)
	if got, _ := s.Get(job.ID); got.State != StateDone || got.Error != "" {
		t.Errorf("terminal state not sticky: %+v", got)
	}
}

func TestStoreFinishOutcomes(t *testing.T) {
	s, _ := newTestStore(time.Hour)
	fail := s.Create(Spec{Experiment: "suite"}, 1)
	s.Start(fail.ID)
	s.Finish(fail.ID, nil, errors.New("cell exploded"), false)
	if got, _ := s.Get(fail.ID); got.State != StateFailed || got.Error == "" {
		t.Errorf("failed job: %+v", got)
	}

	// Cancelling a running job: state flips only when the pool finalizes.
	run := s.Create(Spec{Experiment: "suite"}, 1)
	s.Start(run.ID)
	snap, err := s.Cancel(run.ID)
	if err != nil || snap.State != StateRunning {
		t.Fatalf("running cancel should stay running until finalize: %+v, %v", snap, err)
	}
	s.Finish(run.ID, []int{1}, nil, false)
	if got, _ := s.Get(run.ID); got.State != StateCancelled {
		t.Errorf("cancel request must win at finalize: %+v", got)
	}

	// Cancelling a pending job is immediate.
	pend := s.Create(Spec{Experiment: "suite"}, 1)
	if snap, _ := s.Cancel(pend.ID); snap.State != StateCancelled {
		t.Errorf("pending cancel should be immediate: %+v", snap)
	}
	if err := s.Start(pend.ID); err == nil {
		t.Error("starting a cancelled job should fail")
	}
	if _, err := s.Cancel("job-999999"); err == nil {
		t.Error("cancelling an unknown job should fail")
	}
}

func TestStoreTTLEviction(t *testing.T) {
	s, clk := newTestStore(time.Minute)
	done := s.Create(Spec{Experiment: "suite"}, 1)
	s.Start(done.ID)
	s.Finish(done.ID, []int{1}, nil, false)
	live := s.Create(Spec{Experiment: "table2"}, 1)
	s.Start(live.ID)

	clk.advance(30 * time.Second)
	if n := s.Sweep(); n != 0 {
		t.Errorf("evicted %d jobs before TTL", n)
	}
	clk.advance(45 * time.Second) // finished job now past its minute
	if n := s.Sweep(); n != 1 {
		t.Errorf("evicted %d jobs, want 1", n)
	}
	if _, ok := s.Get(done.ID); ok {
		t.Error("finished job should be evicted")
	}
	// Running jobs are never evicted, no matter how old.
	clk.advance(24 * time.Hour)
	s.Sweep()
	if _, ok := s.Get(live.ID); !ok {
		t.Error("running job must survive eviction")
	}
	if len(s.List()) != 1 {
		t.Errorf("List should show the surviving job, got %d", len(s.List()))
	}
}

// memJournal keeps every appended record in memory.
type memJournal struct{ recs []durable.Record }

func (m *memJournal) Append(rec durable.Record) error {
	m.recs = append(m.recs, rec)
	return nil
}

// TestStoreLatchedStateSurvivesCancel drives the finalize/DELETE race by
// hand: once the pool latches a job's terminal state (and records it on the
// job span), a DELETE no longer changes or journals anything, and Finish
// commits the latched state. A DELETE before the latch still wins.
func TestStoreLatchedStateSurvivesCancel(t *testing.T) {
	s, _ := newTestStore(time.Hour)
	j := &memJournal{}
	s.SetJournal(j)

	job := s.Create(Spec{Experiment: "suite"}, 1)
	s.Start(job.ID)
	latched := s.Latch(job.ID, nil, false)
	if latched != StateDone {
		t.Fatalf("latched %s, want %s", latched, StateDone)
	}
	afterLatch := len(j.recs)
	if snap, err := s.Cancel(job.ID); err != nil || snap.State != StateRunning {
		t.Fatalf("cancel after latch: %+v, %v; want the running snapshot unchanged", snap, err)
	}
	s.Finish(job.ID, []int{1}, nil, false)
	if got, _ := s.Get(job.ID); got.State != latched {
		t.Errorf("finished %s, latched %s", got.State, latched)
	}
	for _, rec := range j.recs[afterLatch:] {
		if rec.Kind == durable.KindCancel {
			t.Errorf("cancel journaled after the latch: %+v", rec)
		}
	}

	early := s.Create(Spec{Experiment: "suite"}, 1)
	s.Start(early.ID)
	s.Cancel(early.ID)
	if got := s.Latch(early.ID, nil, false); got != StateCancelled {
		t.Errorf("cancel before the latch: latched %s, want %s", got, StateCancelled)
	}
	s.Finish(early.ID, nil, nil, false)
	if got, _ := s.Get(early.ID); got.State != StateCancelled {
		t.Errorf("cancel before the latch: finished %s, want %s", got.State, StateCancelled)
	}
}

// TestStoreBindCancelsCancelledJob drives the submit/DELETE race by hand: a
// DELETE between Create and Bind finalizes the pending job before its
// context exists, so Bind must hand back that context already cancelled, or
// the job's cells would run (and journal) after its terminal record.
func TestStoreBindCancelsCancelledJob(t *testing.T) {
	s, _ := newTestStore(time.Hour)
	job := s.Create(Spec{Experiment: "suite"}, 1)
	if snap, err := s.Cancel(job.ID); err != nil || snap.State != StateCancelled {
		t.Fatalf("cancel before bind: %+v, %v", snap, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Bind(job.ID, cancel, nil, nil)
	if ctx.Err() == nil {
		t.Error("Bind left a cancelled job's context live")
	}

	live := s.Create(Spec{Experiment: "suite"}, 1)
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	s.Bind(live.ID, lcancel, nil, nil)
	if lctx.Err() != nil {
		t.Error("Bind cancelled a job nobody cancelled")
	}
}
