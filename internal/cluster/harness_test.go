package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

// testClusterConfig is a tight-timing config for in-process tests: worker
// death is detected in ~a quarter second (5 heartbeats) instead of ten.
func testClusterConfig() Config {
	return Config{
		LeaseTTL:       time.Minute,
		HeartbeatEvery: 50 * time.Millisecond,
	}
}

// testCluster is an in-process coordinator plus N workers, every node
// wired over real HTTP through httptest listeners.
type testCluster struct {
	t        testing.TB
	store    *service.Store
	pool     *service.Pool
	coord    *Coordinator
	coordSrv *httptest.Server
	secret   string
	workers  []*Worker
	servers  []*httptest.Server
}

// startTestCluster builds the coordinator side. mutate (optional) adjusts
// the pool (planner, admission, journal) before anything starts.
func startTestCluster(t testing.TB, cfg Config, mutate func(*service.Store, *service.Pool)) *testCluster {
	t.Helper()
	store := service.NewStore(0)
	pool := service.NewPool(store, 16)
	coord := NewCoordinator(pool, cfg)
	if mutate != nil {
		mutate(store, pool)
	}
	coordSrv := httptest.NewServer(coord.Handler())
	coord.Start()
	pool.Start()
	tc := &testCluster{t: t, store: store, pool: pool, coord: coord, coordSrv: coordSrv, secret: cfg.Secret}
	t.Cleanup(func() {
		tc.pool.Stop()
		tc.coord.Stop()
		for _, w := range tc.workers {
			w.Stop()
		}
		for _, s := range tc.servers {
			s.Close()
		}
		tc.coordSrv.Close()
	})
	return tc
}

// addWorker starts one worker node with capacity slots; exec == nil keeps
// the real ExecuteCell.
func (tc *testCluster) addWorker(capacity int, exec Executor) *Worker {
	tc.t.Helper()
	// The worker must know its advertise URL before its server exists, so
	// bind the listener first.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{
		ID:             fmt.Sprintf("w%d", len(tc.workers)),
		CoordinatorURL: tc.coordSrv.URL,
		AdvertiseURL:   "http://" + l.Addr().String(),
		Capacity:       capacity,
		Secret:         tc.secret,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	if exec != nil {
		w.SetExecutor(exec)
	}
	srv := httptest.NewUnstartedServer(w.Handler())
	srv.Listener.Close()
	srv.Listener = l
	srv.Start()
	if err := w.Start(context.Background()); err != nil {
		tc.t.Fatal(err)
	}
	tc.workers = append(tc.workers, w)
	tc.servers = append(tc.servers, srv)
	return w
}

// submitAndWait submits spec and blocks until the job is terminal.
func (tc *testCluster) submitAndWait(spec service.Spec, timeout time.Duration) service.Job {
	tc.t.Helper()
	job, err := tc.pool.Submit(spec)
	if err != nil {
		tc.t.Fatal(err)
	}
	return tc.wait(job.ID, timeout)
}

func (tc *testCluster) wait(id string, timeout time.Duration) service.Job {
	tc.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	job, err := tc.pool.Wait(ctx, id)
	if err != nil {
		tc.t.Fatalf("wait %s: %v", id, err)
	}
	return job
}

// metric reads one unlabeled series from the pool registry.
func (tc *testCluster) metric(name string) float64 {
	tc.t.Helper()
	v, ok := tc.pool.Registry().Value(name)
	if !ok {
		tc.t.Fatalf("metric %s not registered", name)
	}
	return v
}

// stubRow is the deterministic row a stub cell produces for its index; it
// round-trips through SuiteRow, the journal and the wire identically on
// every node.
func stubRow(idx int) experiments.SuiteRow {
	return experiments.SuiteRow{
		App:      fmt.Sprintf("cell-%03d", idx),
		Policy:   "stub",
		AvgTempC: 40 + float64(idx)*1.25,
	}
}

// stubPlanner plans n synthetic suite cells whose local Run produces
// stubRow(i) after delay — the standalone reference for cluster runs.
func stubPlanner(n int, delay time.Duration) service.Planner {
	return func(cfg experiments.Config, id string) ([]experiments.Cell, experiments.Assemble, error) {
		cells := make([]experiments.Cell, n)
		for i := range cells {
			i := i
			cells[i] = experiments.Cell{
				Key: fmt.Sprintf("stub/%03d", i),
				Run: func(ctx context.Context) (any, error) {
					if delay > 0 {
						select {
						case <-time.After(delay):
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					}
					return stubRow(i), nil
				},
			}
		}
		assemble := func(rows []any) any {
			out := make([]experiments.SuiteRow, 0, len(rows))
			for _, r := range rows {
				if r != nil {
					out = append(out, r.(experiments.SuiteRow))
				}
			}
			return out
		}
		return cells, assemble, nil
	}
}

// stubExecutor is the worker-side twin of stubPlanner: same row, same
// delay, no simulator.
func stubExecutor(delay time.Duration) Executor {
	return func(ctx context.Context, spec service.Spec, cell int, _ json.RawMessage) (json.RawMessage, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return json.Marshal(stubRow(cell))
	}
}

// runStandalone executes the same stub plan on a plain in-process pool and
// returns its assembled rows — the bit-identity reference.
func runStandalone(t *testing.T, n int, spec service.Spec) []experiments.SuiteRow {
	t.Helper()
	store := service.NewStore(0)
	pool := service.NewPool(store, 4)
	pool.SetPlanner(stubPlanner(n, 0))
	pool.Start()
	t.Cleanup(pool.Stop)
	job, err := pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := pool.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("standalone job finished %s: %s", final.State, final.Error)
	}
	rows, _ := store.Rows(job.ID)
	return rows.([]experiments.SuiteRow)
}
