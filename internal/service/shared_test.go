package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/golden"
	"repro/internal/telemetry"
)

// sharedRowPlan plans groups of three instant cells in which the first cell
// of each group runs and the other two share its run: their rows are its row
// carrying their own App. A sharing cell's own Run fails, so a pool that
// executes one fails the job.
func sharedRowPlan(groups int) Planner {
	return func(cfg experiments.Config, id string) ([]experiments.Cell, experiments.Assemble, error) {
		cells, assemble, err := suiteRowPlan(3*groups)(cfg, id)
		for i := range cells {
			src := i - i%3
			if src == i {
				continue
			}
			app := fmt.Sprintf("app-%d", i)
			cells[i].Run = func(context.Context) (any, error) { return nil, errors.New("a sharing cell ran") }
			cells[i].Shares = &experiments.SharedRun{Cell: src, Row: func(r any) any {
				row := r.(experiments.SuiteRow)
				row.App = app
				return row
			}}
		}
		return cells, assemble, err
	}
}

// countingRunner returns an in-process CellRunner that records the index of
// every cell it runs.
func countingRunner(ran *[]int, mu *sync.Mutex) CellRunner {
	return func(ctx context.Context, _ string, _ Spec, idx int, cell experiments.Cell) (any, string, error) {
		mu.Lock()
		*ran = append(*ran, idx)
		mu.Unlock()
		row, err := experiments.RunCell(ctx, cell)
		return row, "", err
	}
}

// TestExampleTournamentSharesRuns: the example tournament plans 33 cells, of
// which the 8 later seeds of linux-ondemand and ge-qiu share a run, so the
// pool runs 25 simulations, credits all 33 cells, traces one cell span per
// run, and its leaderboard CSV is the byte string thermsim's campaign test
// pins.
func TestExampleTournamentSharesRuns(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "tournament", "experiments.json"))
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(0)
	pool := NewPool(store, 4)
	var mu sync.Mutex
	var ran []int
	pool.SetCellRunner(countingRunner(&ran, &mu))
	pool.Start()
	t.Cleanup(pool.Stop)
	job, err := pool.Submit(Spec{Experiment: campaign.Experiment, Campaign: doc})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, pool, job.ID)
	if final.State != StateDone {
		t.Fatalf("tournament finished %s: %s", final.State, final.Error)
	}
	if p := final.Progress; p.TotalCells != 33 || p.DoneCells != 33 || p.FailedCells != 0 {
		t.Errorf("progress %+v, want 33 total, 33 done, 0 failed", p)
	}
	if len(ran) != 25 {
		t.Errorf("ran %d simulations, want 25", len(ran))
	}

	tr, _ := store.Tracer(job.ID)
	cellSpans := 0
	for _, s := range tr.Snapshot() {
		switch s.Kind {
		case telemetry.KindJob:
			_, cells, _ := s.Attr("cells")
			_, runs, _ := s.Attr("runs")
			if cells != 33 || runs != 25 {
				t.Errorf("job span cells=%v runs=%v, want 33 and 25", cells, runs)
			}
		case telemetry.KindCell:
			cellSpans++
		}
	}
	if cellSpans != 25 {
		t.Errorf("%d cell spans, want one per run (25)", cellSpans)
	}

	rows, _ := store.Rows(job.ID)
	var lb bytes.Buffer
	if err := campaign.WriteCSV(&lb, campaign.Leaderboard(rows.([]campaign.Row))); err != nil {
		t.Fatal(err)
	}
	golden.Open(t, filepath.Join("..", "..", "cmd", "thermsim", "testdata", "digests.json")).
		Check(t, "tournament/leaderboard-csv", lb.Bytes())
}

// TestPoolSharedRunOutcomes: a failed run fails the cells sharing it with
// an error naming both keys, and a cancelled run leaves them skipped.
func TestPoolSharedRunOutcomes(t *testing.T) {
	pool, _ := startPool(t, 2)
	share := func(src int) *experiments.SharedRun {
		return &experiments.SharedRun{Cell: src, Row: func(r any) any { return r }}
	}
	pool.plan = stubPlan([]experiments.Cell{
		{Key: "ok", Run: func(context.Context) (any, error) { return 1, nil }},
		{Key: "ok-shared", Shares: share(0)},
		{Key: "bad", Run: func(context.Context) (any, error) { return nil, errors.New("boom") }},
		{Key: "bad-shared", Shares: share(2)},
	})
	job, err := pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, pool, job.ID)
	if final.State != StateFailed || final.Progress.DoneCells != 2 || final.Progress.FailedCells != 2 {
		t.Fatalf("job %s with progress %+v, want failed with 2 done / 2 failed", final.State, final.Progress)
	}
	if !strings.Contains(final.Error, "bad-shared: shared run bad failed") || !strings.Contains(final.Error, "boom") {
		t.Errorf("sharing cell's error does not name both keys and the cause: %q", final.Error)
	}

	started := make(chan struct{})
	pool.plan = stubPlan([]experiments.Cell{
		{Key: "block", Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		{Key: "block-shared", Shares: share(0)},
	})
	job, err = pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := pool.store.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	final = waitDone(t, pool, job.ID)
	if final.State != StateCancelled || final.Progress.DoneCells != 0 || final.Progress.FailedCells != 0 {
		t.Errorf("job %s with progress %+v, want cancelled with nothing committed", final.State, final.Progress)
	}
}

// TestRecoverySharedRunEveryOffset: a job whose cells share runs recovers
// from every prefix of its WAL — including one that ends between a run's
// record and the records of the cells sharing it — to the uninterrupted
// run's rows, without ever running a sharing cell.
func TestRecoverySharedRunEveryOffset(t *testing.T) {
	recoverEveryOffset(t, sharedRowPlan(2))
}

// TestResumeJournalWithoutSharing: a tournament journaled before runs were
// shared — every cell its own record, only some committed, among them a
// sharing cell whose run is not and a run whose sharing cells are not —
// resumes to the leaderboard bytes of the whole tournament run cell by cell,
// running only the runs that still have an uncommitted cell.
func TestResumeJournalWithoutSharing(t *testing.T) {
	doc := json.RawMessage(`{
		"policies": ["linux-ondemand", "ge-qiu", "distilled"],
		"workloads": ["mpegdec"],
		"seeds": [1, 2, 3]
	}`)
	spec := Spec{Experiment: campaign.Experiment, Campaign: doc}
	cells, assemble, err := campaign.Cells(spec.Config(), campaign.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]any, len(cells))
	for i, c := range cells {
		if seq[i], err = c.Run(context.Background()); err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
	}
	var want bytes.Buffer
	if err := campaign.WriteCSV(&want, campaign.Leaderboard(assemble(seq).([]campaign.Row))); err != nil {
		t.Fatal(err)
	}

	// Cells 0-2 are linux-ondemand's seeds, 3-5 ge-qiu's, 6-8 distilled's.
	// Committed: linux-ondemand s2 (its run, cell 0, is not), ge-qiu s1
	// (its sharing cells 4 and 5 are not) and distilled s1.
	dir := t.TempDir()
	j := openJournal(t, dir)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs := []durable.Record{{Kind: durable.KindSubmit, Job: "job-000001", Spec: specJSON, TotalCells: len(cells), SubmittedAt: time.Now()}}
	for _, i := range []int{1, 3, 6} {
		row, err := json.Marshal(seq[i])
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, durable.Record{Kind: durable.KindCell, Job: "job-000001", Cell: i, Row: row})
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, dir)
	defer j2.Close()
	store := NewStore(0)
	store.SetJournal(j2)
	pool := NewPool(store, 2)
	var mu sync.Mutex
	var ran []int
	pool.SetCellRunner(countingRunner(&ran, &mu))
	if restored, resumed := pool.Recover(j2.Recovered()); restored != 0 || resumed != 1 {
		t.Fatalf("recover: restored %d resumed %d, want 0/1", restored, resumed)
	}
	pool.Start()
	t.Cleanup(pool.Stop)
	final := waitDone(t, pool, "job-000001")
	if final.State != StateDone || final.Progress.DoneCells != len(cells) {
		t.Fatalf("resumed job %s with progress %+v: %s", final.State, final.Progress, final.Error)
	}
	slices.Sort(ran)
	if !slices.Equal(ran, []int{0, 7, 8}) {
		t.Errorf("resume ran cells %v, want [0 7 8]", ran)
	}
	rows, _ := store.Rows("job-000001")
	var got bytes.Buffer
	if err := campaign.WriteCSV(&got, campaign.Leaderboard(rows.([]campaign.Row))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("resumed leaderboard differs:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// recordingJournal keeps every appended record, in order.
type recordingJournal struct {
	mu   sync.Mutex
	recs []durable.Record
}

func (r *recordingJournal) Append(rec durable.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, rec)
	return nil
}

// TestSharedCellsJournaledBeforeTerminal: a job reads as terminal only
// after the record of every cell sharing a run is journaled, and none lands
// after the terminal record.
func TestSharedCellsJournaledBeforeTerminal(t *testing.T) {
	const groups = 8
	var journal recordingJournal
	store := NewStore(0)
	store.SetJournal(&journal)
	pool := NewPool(store, 4)
	pool.plan = sharedRowPlan(groups)
	pool.Start()
	t.Cleanup(pool.Stop)
	job, err := pool.Submit(Spec{Experiment: "suite"})
	if err != nil {
		t.Fatal(err)
	}
	<-store.Done(job.ID)
	journal.mu.Lock()
	recs := slices.Clone(journal.recs)
	journal.mu.Unlock()
	if snap, _ := store.Get(job.ID); snap.State != StateDone {
		t.Fatalf("job finished %s: %s", snap.State, snap.Error)
	}
	committed := map[int]bool{}
	finished := false
	for _, rec := range recs {
		switch rec.Kind {
		case durable.KindCell:
			if finished {
				t.Errorf("cell %d journaled after the job's terminal record", rec.Cell)
			}
			committed[rec.Cell] = true
		case durable.KindFinish:
			finished = true
		}
	}
	if !finished || len(committed) != 3*groups {
		t.Errorf("job read as terminal with %d of %d cells journaled (terminal record: %v)", len(committed), 3*groups, finished)
	}
}
