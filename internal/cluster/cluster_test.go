package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/service"
)

// TestClusterStubDispatch is the dispatch smoke test: a 3-worker cluster
// runs a 24-cell stub campaign and assembles rows bit-identical to a
// standalone pool over the same plan, with the work actually sharded.
func TestClusterStubDispatch(t *testing.T) {
	const cells = 24
	spec := service.Spec{Experiment: "suite", Quick: true}
	want := runStandalone(t, cells, spec)

	tc := startTestCluster(t, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
	})
	for i := 0; i < 3; i++ {
		tc.addWorker(4, stubExecutor(0))
	}
	final := tc.submitAndWait(spec, time.Minute)
	if final.State != service.StateDone {
		t.Fatalf("cluster job finished %s: %s", final.State, final.Error)
	}
	rowsAny, _ := tc.store.Rows(final.ID)
	rows := rowsAny.([]experiments.SuiteRow)
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("cluster rows differ from standalone:\n got %+v\nwant %+v", rows, want)
	}
	if got := tc.metric("thermserved_cluster_leases_granted_total"); got < cells {
		t.Errorf("leases granted %v, want >= %d", got, cells)
	}
	// All three workers should have taken a share of the 24 cells.
	var total int64
	for _, w := range tc.workers {
		if w.Executed() == 0 {
			t.Errorf("worker executed nothing; sharding is broken")
		}
		total += w.Executed()
	}
	if total != cells {
		t.Errorf("workers executed %d cells, want %d", total, cells)
	}
	if got := tc.metric("thermserved_cluster_workers_alive"); got != 3 {
		t.Errorf("workers_alive %v, want 3", got)
	}
}

// TestClusterJournalsWorkerAttribution checks the durable tie-in: every
// cell committed by a cluster run lands in the journal with the worker id
// that executed it, and the journaled state re-feeds nothing (no
// uncommitted cells after completion).
func TestClusterJournalsWorkerAttribution(t *testing.T) {
	const cells = 6
	dir := t.TempDir()
	journal, err := durable.OpenJournal(filepath.Join(dir, "jobs"), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := startTestCluster(t, testClusterConfig(), func(s *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
		s.SetJournal(journal)
	})
	tc.addWorker(2, stubExecutor(0))
	tc.addWorker(2, stubExecutor(0))
	final := tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)
	if final.State != service.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := durable.OpenJournal(filepath.Join(dir, "jobs"), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	js, ok := reopened.Recovered().Jobs[final.ID]
	if !ok {
		t.Fatalf("job %s not in journal", final.ID)
	}
	if un := js.UncommittedCells(); len(un) != 0 {
		t.Fatalf("finished job has uncommitted cells %v", un)
	}
	for idx, cs := range js.Cells {
		if cs.Worker != "w0" && cs.Worker != "w1" {
			t.Errorf("cell %d journaled with worker %q, want a cluster worker id", idx, cs.Worker)
		}
	}
}

// TestClusterSecret checks the shared-secret gate on the cluster surface:
// unauthenticated register and assign requests bounce with 401 (so an open
// network cannot feed the coordinator bogus workers that would black-hole
// leases), while nodes configured with the secret interoperate end to end.
func TestClusterSecret(t *testing.T) {
	cfg := testClusterConfig()
	cfg.Secret = "open-sesame"
	const cells = 6
	tc := startTestCluster(t, cfg, func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
	})

	// A register without the token must not join the membership.
	body, err := json.Marshal(RegisterRequest{ID: "rogue", URL: "http://127.0.0.1:1", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := postJSON(context.Background(), tc.coordSrv.Client(), "", tc.coordSrv.URL+"/cluster/v2/register", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("unauthenticated register answered %d, want 401", resp.StatusCode)
	}
	if n := tc.coord.Membership().Alive(); n != 0 {
		t.Fatalf("rogue worker joined the membership (%d alive)", n)
	}
	// A wrong token is just as dead.
	resp, err = postJSON(context.Background(), tc.coordSrv.Client(), "wrong-secret", tc.coordSrv.URL+"/cluster/v2/register", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("wrong-secret register answered %d, want 401", resp.StatusCode)
	}

	// Properly configured nodes complete a campaign as usual.
	tc.addWorker(2, stubExecutor(0))
	tc.addWorker(2, stubExecutor(0))
	final := tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)
	if final.State != service.StateDone {
		t.Fatalf("authenticated cluster job finished %s: %s", final.State, final.Error)
	}

	// The worker's assign route demands the same token.
	assign, err := json.Marshal(AssignRequest{Job: "x", Cell: 0})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = postJSON(context.Background(), tc.servers[0].Client(), "", tc.servers[0].URL+"/cluster/v2/assign", assign)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("unauthenticated assign answered %d, want 401", resp.StatusCode)
	}
}

// aaaa is an endless stream of the byte 'a'.
type aaaa struct{}

var aaaaChunk = bytes.Repeat([]byte("a"), 32<<10)

func (aaaa) Read(p []byte) (int, error) { return copy(p, aaaaChunk), nil }

// TestClusterBodiesBounded: the coordinator reads at most durable.MaxPayload
// bytes of a cluster request, like the public submit routes, and of an
// assignment's response; a worker reads at most maxAssignBody bytes of an
// assignment. An oversize register, heartbeat or assignment gets 413 with the
// JSON error envelope, a body that ends early gets 400, and neither changes
// the membership; an oversize result fails its attempt, and the cell commits
// from the next one.
func TestClusterBodiesBounded(t *testing.T) {
	var answers atomic.Int64
	tc, job := stubWorker(t, func(w http.ResponseWriter, _ *http.Request, req AssignRequest) {
		if answers.Add(1) == 1 {
			// One JSON string a few bytes past the bound, streamed so the
			// test never holds it.
			io.Copy(w, io.MultiReader(strings.NewReader(`{"err":"`), //nolint:errcheck // the coordinator hangs up
				io.LimitReader(aaaa{}, durable.MaxPayload), strings.NewReader(`"}`)))
			return
		}
		answerRow(t, w, req)
	})
	for _, route := range []struct {
		path    string
		handler http.Handler
		limit   int64
	}{
		{"/cluster/v2/register", tc.coord.Handler(), durable.MaxPayload},
		{"/cluster/v2/heartbeat", tc.coord.Handler(), durable.MaxPayload},
		{"/cluster/v2/assign", offlineWorker(0).Handler(), maxAssignBody},
	} {
		for _, c := range []struct {
			name string
			body io.Reader
			want int
		}{
			// One JSON string a few bytes past the bound, streamed so the
			// test never holds it; the handler buffers up to the bound.
			{"oversize", io.MultiReader(strings.NewReader(`{"id":"`),
				io.LimitReader(aaaa{}, route.limit), strings.NewReader(`"}`)),
				http.StatusRequestEntityTooLarge},
			// What the server's body reader returns when the client hangs
			// up before its Content-Length is in.
			{"ends early", io.MultiReader(strings.NewReader(`{"id":"`),
				iotest.ErrReader(io.ErrUnexpectedEOF)), http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			route.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.path, c.body))
			var envelope map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope["error"] == "" {
				t.Fatalf("%s body to %s answered %q, want a JSON error envelope (%v)", c.name, route.path, rec.Body, err)
			}
			if rec.Code != c.want {
				t.Fatalf("%s body to %s answered %d (%s), want %d", c.name, route.path, rec.Code, envelope["error"], c.want)
			}
		}
	}
	final := tc.wait(job.ID, time.Minute)
	if final.State != service.StateDone || final.Progress.DoneCells != 1 || final.Progress.FailedCells != 0 {
		t.Fatalf("job finished %s with %+v: %s", final.State, final.Progress, final.Error)
	}
	if got := tc.metric("thermserved_cluster_leases_expired_total"); got != 1 {
		t.Fatalf("leases_expired_total = %v after one oversize result, want 1", got)
	}
	if ws := tc.coord.Membership().Snapshot(); len(ws) != 1 || ws[0].ID != "stub" {
		t.Fatalf("membership is %+v, want only the stub worker", ws)
	}
}

// TestClusterSuiteBitIdenticalWithKill is the acceptance criterion: a
// 3-worker cluster runs the real quick suite campaign, one worker is killed
// mid-job, the dead worker's leases are reassigned, and the aggregated rows
// are still bit-identical to the sequential runner.
func TestClusterSuiteBitIdenticalWithKill(t *testing.T) {
	seq, err := experiments.Suite(context.Background(), experiments.Config{Run: experiments.DefaultConfig().Run, Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	tc := startTestCluster(t, testClusterConfig(), nil)
	// The victim stalls its first assignment until the test kills it, so the
	// kill is guaranteed to land with work genuinely in flight on the dying
	// node; the survivors run the real ExecuteCell.
	victimGot := make(chan struct{})
	victimDead := make(chan struct{})
	var once sync.Once
	victim := tc.addWorker(2, func(ctx context.Context, _ service.Spec, _ int, _ json.RawMessage) (json.RawMessage, error) {
		once.Do(func() { close(victimGot) })
		select {
		case <-victimDead:
		case <-ctx.Done():
		}
		return nil, context.Canceled
	})
	tc.addWorker(2, nil) // real ExecuteCell
	tc.addWorker(2, nil)
	job, err := tc.pool.Submit(service.Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-victimGot:
	case <-time.After(time.Minute):
		t.Fatal("victim worker never received work")
	}
	victim.Kill()
	close(victimDead)

	final := tc.wait(job.ID, 5*time.Minute)
	if final.State != service.StateDone {
		t.Fatalf("cluster job finished %s: %s", final.State, final.Error)
	}
	rowsAny, _ := tc.store.Rows(job.ID)
	rows := rowsAny.([]experiments.SuiteRow)
	if len(rows) != len(seq) {
		t.Fatalf("cluster produced %d rows, sequential %d", len(rows), len(seq))
	}
	for i := range rows {
		if rows[i] != seq[i] {
			t.Errorf("row %d differs: cluster %+v vs sequential %+v", i, rows[i], seq[i])
		}
	}
	if got := tc.metric("thermserved_cluster_leases_reassigned_total"); got < 1 {
		t.Errorf("leases reassigned %v, want >= 1 after killing a loaded worker", got)
	}
	// The killed worker's cells reassign as soon as its connections drop, so
	// the job can finish before the sweep declares the worker dead.
	waitFor(t, 5*time.Second, "killed worker swept", func() bool {
		return tc.metric("thermserved_cluster_workers_alive") == 2
	})
}
