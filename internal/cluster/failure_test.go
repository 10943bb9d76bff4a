package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// TestHeartbeatExpiry checks the membership layer declares a silent worker
// dead and the cluster keeps serving from the survivors.
func TestHeartbeatExpiry(t *testing.T) {
	const cells = 8
	tc := startTestCluster(t, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
	})
	silent := tc.addWorker(2, stubExecutor(0))
	tc.addWorker(2, stubExecutor(0))

	// Kill stops the heartbeat loop without deregistering — exactly what a
	// crashed node looks like from the coordinator.
	silent.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for tc.coord.Membership().Alive() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("silent worker still alive after %s", testClusterConfig().expireAfter())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tc.metric("thermserved_cluster_workers_dead_total"); got != 1 {
		t.Errorf("workers_dead_total %v, want 1", got)
	}

	// The cluster still completes campaigns on the one survivor.
	final := tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)
	if final.State != service.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if got := tc.workers[1].Executed(); got != cells {
		t.Errorf("survivor executed %d cells, want all %d", got, cells)
	}
}

// TestLeaseExpiryReassignsAndDedupes drives the attempt lifecycle: the
// first assignment hangs past the lease TTL, the coordinator drops the
// request, the stalled execution sees its context end, and the cell is
// reassigned to the other worker and commits exactly once.
func TestLeaseExpiryReassignsAndDedupes(t *testing.T) {
	cfg := testClusterConfig()
	cfg.LeaseTTL = 300 * time.Millisecond

	const cells = 1
	tc := startTestCluster(t, cfg, func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
	})

	// The first execution in the cluster blocks until its context ends;
	// every later one is instant. Whichever worker owns the cell stalls
	// first.
	var calls atomic.Int64
	cut := make(chan struct{})
	slowOnce := func(ctx context.Context, spec service.Spec, cell int, _ json.RawMessage) (json.RawMessage, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done()
			close(cut)
			return nil, ctx.Err()
		}
		return json.Marshal(stubRow(cell))
	}
	tc.addWorker(2, slowOnce)
	tc.addWorker(2, slowOnce)

	final := tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)
	if final.State != service.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	select {
	case <-cut:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled execution's context never ended after its attempt expired")
	}
	if got := tc.metric("thermserved_cluster_leases_expired_total"); got < 1 {
		t.Errorf("leases_expired_total %v, want >= 1", got)
	}
	if got := tc.metric("thermserved_cluster_leases_reassigned_total"); got < 1 {
		t.Errorf("leases_reassigned_total %v, want >= 1", got)
	}

	// The committed row is the reassigned run's — exactly one commit.
	rowsAny, _ := tc.store.Rows(final.ID)
	rows := rowsAny.([]experiments.SuiteRow)
	if len(rows) != cells || rows[0] != stubRow(0) {
		t.Fatalf("rows after reassignment: %+v", rows)
	}
	if final.Progress.DoneCells != cells || final.Progress.FailedCells != 0 {
		t.Fatalf("progress after reassignment: %+v", final.Progress)
	}
	var completed int64
	for _, ws := range tc.coord.Membership().Snapshot() {
		completed += ws.Completed
	}
	if completed != cells {
		t.Fatalf("workers credited with %d commits, want %d", completed, cells)
	}
}

// TestGracefulStopDrainsWithoutFailingCells checks that a rolling restart
// (Worker.Stop, i.e. SIGTERM) never commits spurious cell failures: in-flight
// cells finish with a live context and post real results, new assignments are
// refused with 503 so their leases reassign, and the job completes clean.
func TestGracefulStopDrainsWithoutFailingCells(t *testing.T) {
	const cells = 8
	spec := service.Spec{Experiment: "suite", Quick: true}
	want := runStandalone(t, cells, spec)

	tc := startTestCluster(t, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
	})
	stopper := tc.addWorker(2, stubExecutor(150*time.Millisecond))
	tc.addWorker(2, stubExecutor(150*time.Millisecond))

	job, err := tc.pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Stop the worker only once it genuinely has cells in flight, so the
	// drain path (not just the refusal path) is exercised.
	deadline := time.Now().Add(10 * time.Second)
	for stopper.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stopping worker never received work")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopper.Stop()

	final := tc.wait(job.ID, time.Minute)
	if final.State != service.StateDone {
		t.Fatalf("job finished %s after graceful stop: %s", final.State, final.Error)
	}
	if final.Progress.FailedCells != 0 {
		t.Fatalf("graceful stop committed %d cell failures, want 0", final.Progress.FailedCells)
	}
	rowsAny, _ := tc.store.Rows(final.ID)
	rows := rowsAny.([]experiments.SuiteRow)
	if len(rows) != len(want) {
		t.Fatalf("job produced %d rows, want %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("row %d differs after graceful stop: got %+v want %+v", i, rows[i], want[i])
		}
	}
}

// TestReregisterExpiresPreviousLeases checks that a worker restarting under
// the same id does not leave its previous incarnation's attempts pinned: the
// coordinator cancels their requests at re-registration, so the cells
// reassign at once and the fresh inflight count stays honest.
func TestReregisterExpiresPreviousLeases(t *testing.T) {
	var answers atomic.Int64
	cut := make(chan struct{})
	tc, job := stubWorker(t, func(w http.ResponseWriter, r *http.Request, req AssignRequest) {
		if answers.Add(1) == 1 {
			// The previous incarnation never answers: only the coordinator
			// dropping the request ends it.
			<-r.Context().Done()
			close(cut)
			return
		}
		answerRow(t, w, req)
	})
	waitFor(t, 5*time.Second, "assignment in flight on the stub", func() bool { return answers.Load() == 1 })

	// The worker "restarts" and registers again with its cell in flight.
	tc.register(t, "stub", tc.coord.Membership().Snapshot()[0].URL)
	select {
	case <-cut:
	case <-time.After(5 * time.Second):
		t.Fatal("previous incarnation's request still open after re-registration")
	}
	final := tc.wait(job.ID, time.Minute)
	if final.State != service.StateDone || final.Progress.DoneCells != 1 || final.Progress.FailedCells != 0 {
		t.Fatalf("job finished %s with %+v: %s", final.State, final.Progress, final.Error)
	}
	if got := tc.metric("thermserved_cluster_leases_expired_total"); got != 1 {
		t.Fatalf("leases_expired_total = %v, want 1 for the cancelled attempt", got)
	}
}

// TestWorkerConnectionLossReassigns: a worker whose server closes the
// connection mid-cell has the cell reassigned at once, long before its
// heartbeats could expire.
func TestWorkerConnectionLossReassigns(t *testing.T) {
	cfg := testClusterConfig()
	cfg.HeartbeatEvery = time.Minute // heartbeat expiry cannot be what reassigns the cell
	tc := startTestCluster(t, cfg, func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(1, 0))
	})
	// Equal workers: the first registered wins the tie for the cell.
	stalled := tc.addWorker(1, stubExecutor(time.Minute))
	tc.addWorker(1, stubExecutor(0))
	job, err := tc.pool.Submit(service.Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "cell in flight on the first worker", func() bool { return stalled.Inflight() == 1 })
	tc.servers[0].CloseClientConnections()

	final := tc.wait(job.ID, 10*time.Second)
	if final.State != service.StateDone || final.Progress.DoneCells != 1 || final.Progress.FailedCells != 0 {
		t.Fatalf("job finished %s with %+v: %s", final.State, final.Progress, final.Error)
	}
	if got := tc.workers[1].Executed(); got != 1 {
		t.Fatalf("second worker executed %d cells, want the reassigned 1", got)
	}
	if got := tc.metric("thermserved_cluster_leases_reassigned_total"); got != 1 {
		t.Fatalf("leases_reassigned_total = %v, want 1", got)
	}
	if got := tc.metric("thermserved_cluster_workers_dead_total"); got != 0 {
		t.Fatalf("workers_dead_total = %v: the cell waited for heartbeat expiry", got)
	}
}

// TestUnreachableWorkerLosesPlacement: a worker whose listener closes
// mid-job stops winning placement once an attempt finds it unreachable,
// long before its heartbeats could expire. At most its capacity plus one
// attempts fail, no lease storm trips, and the rows equal a standalone run.
func TestUnreachableWorkerLosesPlacement(t *testing.T) {
	const cells, capacity = 40, 2
	spec := service.Spec{Experiment: "suite", Quick: true}
	want := runStandalone(t, cells, spec)

	cfg := testClusterConfig()
	cfg.HeartbeatEvery = time.Minute // the sweep cannot be what steers cells away
	tc := startTestCluster(t, cfg, func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
	})
	gone := tc.addWorker(capacity, stubExecutor(20*time.Millisecond))
	tc.addWorker(capacity, stubExecutor(20*time.Millisecond))
	job, err := tc.pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "cells in flight on the first worker", func() bool { return gone.Inflight() > 0 })
	tc.servers[0].Listener.Close()
	tc.servers[0].CloseClientConnections()

	final := tc.wait(job.ID, time.Minute)
	if final.State != service.StateDone || final.Progress.FailedCells != 0 {
		t.Fatalf("job finished %s with %+v: %s", final.State, final.Progress, final.Error)
	}
	rowsAny, _ := tc.store.Rows(final.ID)
	if rows := rowsAny.([]experiments.SuiteRow); !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows differ from the standalone run:\n%+v\n%+v", rows, want)
	}
	if got := tc.metric("thermserved_cluster_leases_expired_total"); got > capacity+1 {
		t.Errorf("%v attempts failed, want at most %d: the unreachable worker kept winning placement", got, capacity+1)
	}
	if got, _ := tc.pool.Registry().Value("flightrec_alerts_total", telemetry.L("kind", telemetry.AnomalyLeaseStorm)); got != 0 {
		t.Errorf("lease storm tripped %v times", got)
	}
}

// TestWorkerStartNeedsV2Routes: a worker whose coordinator serves no
// /cluster/v2/ routes (an older build, which registers workers under
// /cluster/v1/) fails Start with the 404 instead of waiting for a
// coordinator that will never hand it a cell.
func TestWorkerStartNeedsV2Routes(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", func(w http.ResponseWriter, _ *http.Request) {
		httpJSON(w, http.StatusOK, RegisterResponse{HeartbeatEveryMs: 2000})
	})
	old := httptest.NewServer(mux)
	defer old.Close()
	w, err := NewWorker(WorkerConfig{ID: "w0", CoordinatorURL: old.URL, AdvertiseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = w.Start(ctx)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Start against a coordinator without /cluster/v2/ returned %v, want an error naming 404", err)
	}
	if ctx.Err() != nil {
		t.Fatal("Start waited out its context instead of failing on the 404")
	}
}
