package cluster

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
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

// TestLeaseExpiryReassignsAndDedupes drives the full lease lifecycle: the
// first assignment hangs past the lease TTL, the cell is reassigned to the
// other worker, and when the slow worker's late result finally arrives it
// is dropped idempotently instead of double-committing the cell.
func TestLeaseExpiryReassignsAndDedupes(t *testing.T) {
	cfg := testClusterConfig()
	cfg.LeaseTTL = 300 * time.Millisecond

	const cells = 1
	tc := startTestCluster(t, cfg, func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
	})

	// The first execution in the cluster blocks until released; every
	// later one is instant. Whichever worker owns the cell stalls first.
	var calls atomic.Int64
	release := make(chan struct{})
	slowOnce := func(ctx context.Context, spec service.Spec, cell int, _ json.RawMessage) (json.RawMessage, error) {
		if calls.Add(1) == 1 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return json.Marshal(stubRow(cell))
	}
	tc.addWorker(2, slowOnce)
	tc.addWorker(2, slowOnce)

	final := tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)
	if final.State != service.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if got := tc.metric("thermserved_cluster_leases_expired_total"); got < 1 {
		t.Errorf("leases_expired_total %v, want >= 1", got)
	}
	if got := tc.metric("thermserved_cluster_leases_reassigned_total"); got < 1 {
		t.Errorf("leases_reassigned_total %v, want >= 1", got)
	}

	// Release the stalled first execution; its completion is now stale and
	// must be dropped as a duplicate.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for tc.metric("thermserved_cluster_duplicate_results_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("late completion never counted as duplicate")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The committed row is the reassigned run's — exactly one commit.
	rowsAny, _ := tc.store.Rows(final.ID)
	rows := rowsAny.([]experiments.SuiteRow)
	if len(rows) != cells || rows[0] != stubRow(0) {
		t.Fatalf("rows after dedupe: %+v", rows)
	}
	if final.Progress.DoneCells != cells || final.Progress.FailedCells != 0 {
		t.Fatalf("progress after dedupe: %+v", final.Progress)
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
// the same id does not leave its previous incarnation's leases pinned: the
// coordinator expires them at re-registration so the cells reassign
// immediately and the fresh inflight count stays honest.
func TestReregisterExpiresPreviousLeases(t *testing.T) {
	tc := startTestCluster(t, testClusterConfig(), nil)

	register := func() {
		body, err := json.Marshal(RegisterRequest{ID: "w-restart", URL: "http://127.0.0.1:1", Capacity: 2})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := postJSON(tc.coordSrv.Client(), "", tc.coordSrv.URL+"/cluster/v1/register", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("register answered %d", resp.StatusCode)
		}
	}
	register()
	l := tc.coord.Leases().Grant("job-1", 0, "w-restart", time.Minute)

	// The worker "restarts" and registers again with in-flight leases.
	register()
	select {
	case <-l.Expired():
	case <-time.After(5 * time.Second):
		t.Fatal("previous incarnation's lease still active after re-registration")
	}
	if n := tc.coord.Leases().Active(); n != 0 {
		t.Fatalf("%d leases still active after re-registration, want 0", n)
	}
}

// TestLeaseTableIdempotency exercises the lease table directly: only the
// active (job, cell, lease id, worker) tuple may complete, everything else
// is a duplicate.
func TestLeaseTableIdempotency(t *testing.T) {
	ls := NewLeases()
	l1 := ls.Grant("job-1", 0, "wA", time.Minute)
	if ls.Active() != 1 {
		t.Fatalf("active %d, want 1", ls.Active())
	}
	if ls.Complete("job-1", 0, l1.ID+1, "wA", Result{}, nil) {
		t.Error("wrong lease id accepted")
	}
	if ls.Complete("job-1", 0, l1.ID, "wB", Result{}, nil) {
		t.Error("wrong worker accepted")
	}
	if !ls.Complete("job-1", 0, l1.ID, "wA", Result{Err: "x"}, nil) {
		t.Error("valid completion refused")
	}
	if ls.Complete("job-1", 0, l1.ID, "wA", Result{}, nil) {
		t.Error("double completion accepted")
	}
	select {
	case res := <-l1.Done():
		if res.Err != "x" {
			t.Errorf("result %+v", res)
		}
	default:
		t.Error("completed lease delivered nothing")
	}

	// Granting over a live lease supersedes it; the old lease expires.
	l2 := ls.Grant("job-1", 1, "wA", time.Minute)
	l3 := ls.Grant("job-1", 1, "wB", time.Minute)
	select {
	case <-l2.Expired():
	case <-time.After(time.Second):
		t.Error("superseded lease did not expire")
	}
	if ls.Complete("job-1", 1, l2.ID, "wA", Result{}, nil) {
		t.Error("superseded lease accepted a completion")
	}
	if !ls.Complete("job-1", 1, l3.ID, "wB", Result{}, nil) {
		t.Error("successor lease refused its completion")
	}

	// ExpireWorker fires every lease a dead worker holds.
	la := ls.Grant("job-2", 0, "wC", time.Minute)
	lb := ls.Grant("job-2", 1, "wC", time.Minute)
	if n := ls.ExpireWorker("wC"); n != 2 {
		t.Fatalf("expired %d leases, want 2", n)
	}
	for _, l := range []*Lease{la, lb} {
		select {
		case <-l.Expired():
		default:
			t.Error("dead worker's lease not expired")
		}
	}
	if ls.Active() != 0 {
		t.Fatalf("active %d after expiry, want 0", ls.Active())
	}
}
