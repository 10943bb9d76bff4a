package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/rl"
)

// learningResponse mirrors the handleLearning JSON envelope.
type learningResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Runs  []struct {
		Policy   string          `json:"policy"`
		Workload string          `json:"workload"`
		Summary  rl.CurveSummary `json:"summary"`
	} `json:"runs"`
}

// TestLearningEndpoint drives the ISSUE's acceptance criterion over real
// HTTP: a fig45 job serves non-empty learning curves and the proposed
// policy's run reports a convergence epoch.
func TestLearningEndpoint(t *testing.T) {
	ts, _, _ := startServer(t, 2)

	var job Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Spec{Experiment: "fig45", Quick: true}, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	deadline := time.Now().Add(2 * time.Minute)
	var probe Job
	for probe.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", probe.State)
		}
		time.Sleep(20 * time.Millisecond)
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, nil, &probe)
		if probe.State.Terminal() && probe.State != StateDone {
			t.Fatalf("job finished %s: %s", probe.State, probe.Error)
		}
	}

	var lr learningResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/learning", nil, &lr); code != http.StatusOK {
		t.Fatalf("learning: status %d", code)
	}
	if lr.ID != job.ID || len(lr.Runs) == 0 {
		t.Fatalf("learning payload off: %+v", lr)
	}
	found := false
	for _, run := range lr.Runs {
		if run.Policy != "proposed" {
			continue
		}
		found = true
		if run.Summary.Epochs == 0 {
			t.Errorf("proposed run sampled no epochs: %+v", run)
		}
		if run.Summary.ConvergeEpoch < 1 {
			t.Errorf("proposed run did not converge on fig45: epoch %d", run.Summary.ConvergeEpoch)
		}
		if len(run.Summary.CoreDamageShare) == 0 {
			t.Errorf("proposed run carries no per-core damage attribution: %+v", run)
		}
	}
	if !found {
		t.Fatalf("no proposed run in %+v", lr.Runs)
	}

	// JSONL streams one decodable rl.RunCurve per line with per-epoch points.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/learning?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jsonl: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("jsonl content type %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rc rl.RunCurve
		if err := json.Unmarshal(sc.Bytes(), &rc); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if len(rc.Points) == 0 {
			t.Errorf("line %d (%s/%s) has no curve points", lines, rc.Policy, rc.Workload)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(lr.Runs) {
		t.Errorf("jsonl lines %d != %d summarized runs", lines, len(lr.Runs))
	}

	// Error surface: bad format is a 400, unknown jobs are a 404 (no durable
	// store is configured, so there is no archive to fall back to).
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/learning?format=yaml", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad format: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope/learning", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// TestLearningSurvivesCrashRestart: a fig45 job caught mid-cell by a crash
// resumes from the journal with its learning curves armed, serves them
// and archives them; once the finished job is restored into a fresh store
// and pool, /learning serves the same runs from the archive.
func TestLearningSurvivesCrashRestart(t *testing.T) {
	dir := t.TempDir()
	traces, err := durable.OpenTraces(filepath.Join(dir, "traces"), 0)
	if err != nil {
		t.Fatal(err)
	}
	learning, err := durable.OpenLearning(filepath.Join(dir, "learning"), 0)
	if err != nil {
		t.Fatal(err)
	}
	getLearning := func(store *Store, pool *Pool, id string) learningResponse {
		t.Helper()
		ts := httptest.NewServer(NewServer(store, pool))
		defer ts.Close()
		var lr learningResponse
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/learning", nil, &lr); code != http.StatusOK {
			t.Fatalf("learning: status %d", code)
		}
		return lr
	}

	// First incarnation: hold fig45's one cell until the "kill", so the
	// journal holds the submission and no cell outcome.
	jobs := filepath.Join(dir, "jobs")
	j := openJournal(t, jobs)
	gate := &gateJournal{j: j}
	store := NewStore(0)
	store.SetJournal(gate)
	pool := NewPool(store, 2)
	started := make(chan struct{})
	pool.plan = func(cfg experiments.Config, id string) ([]experiments.Cell, experiments.Assemble, error) {
		cells, asm, err := campaign.Cells(cfg, id)
		if err != nil {
			return nil, nil, err
		}
		cells[0].Prepare = nil
		cells[0].Run = func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return cells, asm, nil
	}
	pool.Start()
	job, err := pool.Submit(Spec{Experiment: "fig45", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(2 * time.Minute):
		t.Fatal("held cell never started")
	}
	gate.Cut()
	pool.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation resumes the job with both archives attached.
	j2 := openJournal(t, jobs)
	store2 := NewStore(0)
	store2.SetJournal(j2)
	pool2 := NewPool(store2, 2)
	pool2.SetArchives(traces, learning)
	if restored, resumed := pool2.Recover(j2.Recovered()); restored != 0 || resumed != 1 {
		t.Fatalf("recover: restored %d resumed %d, want 0/1", restored, resumed)
	}
	pool2.Start()
	if final := waitDone(t, pool2, job.ID); final.State != StateDone {
		t.Fatalf("resumed job finished %s: %s", final.State, final.Error)
	}
	live := getLearning(store2, pool2, job.ID)
	if len(live.Runs) == 0 {
		t.Fatalf("resumed job serves no learning runs: %+v", live)
	}
	if got := learning.List(); len(got) != 1 || got[0] != job.ID {
		t.Fatalf("learning archive lists %v, want [%s]", got, job.ID)
	}
	pool2.Stop()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third incarnation restores the finished job; its curves now come from
	// the archive.
	j3 := openJournal(t, jobs)
	defer j3.Close()
	store3 := NewStore(0)
	pool3 := NewPool(store3, 1)
	pool3.SetArchives(traces, learning)
	if restored, resumed := pool3.Recover(j3.Recovered()); restored != 1 || resumed != 0 {
		t.Fatalf("restore: restored %d resumed %d, want 1/0", restored, resumed)
	}
	fromArchive := getLearning(store3, pool3, job.ID)
	if fromArchive.State != string(StateDone) || !reflect.DeepEqual(fromArchive.Runs, live.Runs) {
		t.Fatalf("archived learning differs from live:\n%+v\n%+v", fromArchive, live)
	}
}
