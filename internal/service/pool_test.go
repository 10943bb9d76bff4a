package service

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
)

// startPool builds a started pool over a fresh store; callers get both plus
// a cleanup-registered stop.
func startPool(t *testing.T, workers int) (*Pool, *Store) {
	t.Helper()
	store := NewStore(0)
	pool := NewPool(store, workers)
	pool.Start()
	t.Cleanup(pool.Stop)
	return pool, store
}

func waitDone(t *testing.T, pool *Pool, id string) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	job, err := pool.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return job
}

// TestPooledSuiteMatchesSequential is the subsystem's core guarantee: a
// quick suite, and a tournament, fanned out over four workers produce rows
// bit-identical to the sequential runner, in the same order. Both inputs run
// on one pool, one after the other.
func TestPooledSuiteMatchesSequential(t *testing.T) {
	pool, store := startPool(t, 4)

	t.Run("suite", func(t *testing.T) {
		seq, err := experiments.Suite(context.Background(), experiments.Config{Run: experiments.DefaultConfig().Run, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		job, err := pool.Submit(Spec{Experiment: "suite", Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		final := waitDone(t, pool, job.ID)
		if final.State != StateDone {
			t.Fatalf("job finished %s: %s", final.State, final.Error)
		}
		if final.Progress.DoneCells != final.Progress.TotalCells || final.Progress.FailedCells != 0 {
			t.Errorf("progress accounting broken: %+v", final.Progress)
		}
		if final.WallClockS <= 0 {
			t.Error("wall clock not recorded")
		}
		rowsAny, ok := store.Rows(job.ID)
		if !ok {
			t.Fatal("rows missing")
		}
		rows := rowsAny.([]experiments.SuiteRow)
		if len(rows) != len(seq) {
			t.Fatalf("pooled %d rows, sequential %d", len(rows), len(seq))
		}
		for i := range rows {
			if rows[i] != seq[i] {
				t.Errorf("row %d differs: pooled %+v vs sequential %+v", i, rows[i], seq[i])
			}
		}
		if pool.CellsCompleted() != int64(len(seq)) {
			t.Errorf("cells completed %d, want %d", pool.CellsCompleted(), len(seq))
		}
	})

	// The tournament runs each cell of the same campaign.Cells plan in turn.
	t.Run("tournament", func(t *testing.T) {
		spec := Spec{Experiment: campaign.Experiment, Campaign: json.RawMessage(`{
			"name": "pooled-ci",
			"policies": ["linux-ondemand", "proposed", "distilled"],
			"workloads": ["mpegdec"],
			"seeds": [1, 2]
		}`)}
		cells, assemble, err := campaign.Cells(spec.Config(), campaign.Experiment)
		if err != nil {
			t.Fatal(err)
		}
		seqRows := make([]any, len(cells))
		for i, c := range cells {
			if seqRows[i], err = c.Run(context.Background()); err != nil {
				t.Fatalf("sequential %s: %v", c.Key, err)
			}
		}
		want := assemble(seqRows).([]campaign.Row)
		tjob, err := pool.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitDone(t, pool, tjob.ID); final.State != StateDone {
			t.Fatalf("tournament finished %s: %s", final.State, final.Error)
		}
		gotAny, ok := store.Rows(tjob.ID)
		if !ok {
			t.Fatal("tournament rows missing")
		}
		if got := gotAny.([]campaign.Row); len(want) != len(cells) || !reflect.DeepEqual(got, want) {
			t.Errorf("pooled tournament rows differ from sequential:\npooled:     %+v\nsequential: %+v", got, want)
		}
	})
}

// stubPlan replaces the experiment planner with synthetic cells.
func stubPlan(cells []experiments.Cell) Planner {
	return func(experiments.Config, string) ([]experiments.Cell, experiments.Assemble, error) {
		return cells, func(rows []any) any {
			out := make([]any, 0, len(rows))
			for _, r := range rows {
				if r != nil {
					out = append(out, r)
				}
			}
			return out
		}, nil
	}
}

func TestPoolPanicRecovery(t *testing.T) {
	pool, store := startPool(t, 2)
	pool.plan = stubPlan([]experiments.Cell{
		{Key: "ok", Run: func(context.Context) (any, error) { return 1, nil }},
		{Key: "boom", Run: func(context.Context) (any, error) { panic("kaboom") }},
		{Key: "ok2", Run: func(context.Context) (any, error) { return 2, nil }},
	})
	job, err := pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, pool, job.ID)
	if final.State != StateFailed {
		t.Fatalf("job should fail after a panicking cell, got %s", final.State)
	}
	if !strings.Contains(final.Error, "kaboom") || !strings.Contains(final.Error, "boom") {
		t.Errorf("panic not surfaced in error: %q", final.Error)
	}
	if final.Progress.DoneCells != 2 || final.Progress.FailedCells != 1 {
		t.Errorf("progress %+v, want 2 done / 1 failed", final.Progress)
	}
	// The surviving cells' rows are kept alongside the error.
	rows, _ := store.Rows(job.ID)
	if got := rows.([]any); len(got) != 2 {
		t.Errorf("partial rows lost: %v", got)
	}
	// And the fleet survived: a follow-up job still runs.
	pool.plan = stubPlan([]experiments.Cell{{Key: "after", Run: func(context.Context) (any, error) { return 3, nil }}})
	job2, err := pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	if final2 := waitDone(t, pool, job2.ID); final2.State != StateDone {
		t.Errorf("pool unusable after panic: %s", final2.State)
	}
}

func TestPoolCancellation(t *testing.T) {
	pool, store := startPool(t, 2)
	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	blocking := func(ctx context.Context) (any, error) {
		once.Do(func() { close(started) })
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return "done", nil
		}
	}
	cells := make([]experiments.Cell, 8)
	for i := range cells {
		cells[i] = experiments.Cell{Key: "block", Run: blocking}
	}
	pool.plan = stubPlan(cells)
	job, err := pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // at least one cell is executing
	if snap, _ := store.Get(job.ID); snap.State != StateRunning {
		t.Fatalf("job should be running, got %s", snap.State)
	}
	if _, err := store.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, pool, job.ID)
	if final.State != StateCancelled {
		t.Fatalf("job should be cancelled, got %s (%s)", final.State, final.Error)
	}
	// Cancellation-induced unwinds are skips, not failures.
	if final.Progress.FailedCells != 0 {
		t.Errorf("cancelled cells counted as failures: %+v", final.Progress)
	}
	close(release)
}

func TestPoolStopCancelsInFlightJobs(t *testing.T) {
	store := NewStore(0)
	pool := NewPool(store, 2)
	pool.Start()
	started := make(chan struct{})
	var once sync.Once
	pool.plan = stubPlan([]experiments.Cell{{Key: "block", Run: func(ctx context.Context) (any, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	}}})
	job, err := pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	pool.Stop()
	if got, _ := store.Get(job.ID); got.State != StateCancelled {
		t.Errorf("in-flight job after Stop: %s, want cancelled", got.State)
	}
}

func TestPoolSubmitValidation(t *testing.T) {
	pool, _ := startPool(t, 1)
	if _, err := pool.Submit(Spec{Experiment: "fig99"}); err == nil {
		t.Error("unknown experiment should be rejected at submit")
	}
	if _, err := pool.Submit(Spec{}); err == nil {
		t.Error("empty spec should be rejected at submit")
	}
	if pool.JobsSubmitted() != 0 {
		t.Error("rejected submissions must not count")
	}
}

func TestPoolDefaultsAndErrors(t *testing.T) {
	if NewPool(NewStore(0), 0).Workers() < 1 {
		t.Error("default worker count should be at least 1")
	}
	pool, _ := startPool(t, 1)
	if _, err := pool.Wait(context.Background(), "job-999999"); err == nil {
		t.Error("waiting on an unknown job should fail")
	}
	pool.plan = func(experiments.Config, string) ([]experiments.Cell, experiments.Assemble, error) {
		return nil, nil, errors.New("planner down")
	}
	if _, err := pool.Submit(Spec{Experiment: "suite"}); err == nil {
		t.Error("planner errors should reject the submission")
	}
}
