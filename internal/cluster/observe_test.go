package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// tracedExecutor is the worker-side twin of stubExecutor that also behaves
// like the real ExecuteCell tracing-wise: it records a run span under the
// propagated exec parent, the way experiments.traceCfg nests sim runs.
func tracedExecutor(delay time.Duration) Executor {
	return func(ctx context.Context, spec service.Spec, cell int, _ json.RawMessage) (json.RawMessage, error) {
		tr, parent := telemetry.SpanFromContext(ctx)
		run := tr.Start(parent, telemetry.KindRun, fmt.Sprintf("run-%03d", cell))
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				tr.End(run, telemetry.Str("error", ctx.Err().Error()))
				return nil, ctx.Err()
			}
		}
		tr.End(run)
		return json.Marshal(stubRow(cell))
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterMergedTrace is the tentpole assertion: a job run on an
// in-process coordinator plus two workers yields ONE trace containing spans
// from all three nodes with correct parent/child linkage — job → cell →
// dispatch (coordinator) → exec (worker) → run (worker), plus the queue-wait
// and commit phase spans.
func TestClusterMergedTrace(t *testing.T) {
	const cells = 16
	tc := startTestCluster(t, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
	})
	tc.addWorker(4, tracedExecutor(0))
	tc.addWorker(4, tracedExecutor(0))

	job := tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)
	if job.State != service.StateDone {
		t.Fatalf("job finished %s: %s", job.State, job.Error)
	}

	tracer, ok := tc.store.Tracer(job.ID)
	if !ok || tracer == nil {
		t.Fatal("job has no tracer")
	}
	spans := tracer.Snapshot()
	byID := make(map[telemetry.SpanID]telemetry.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	kindOf := func(id telemetry.SpanID) string {
		if sp, ok := byID[id]; ok {
			return sp.Kind
		}
		return ""
	}

	var execs, runs, dispatches, queueWaits, commits int
	nodes := make(map[string]bool)
	for _, sp := range spans {
		switch sp.Kind {
		case telemetry.KindExec:
			execs++
			// exec parent must be the coordinator-side dispatch span...
			if got := kindOf(sp.Parent); got != telemetry.KindDispatch {
				t.Fatalf("exec span %d parented by %q, want dispatch", sp.ID, got)
			}
			// ...and carry the worker identity plus the clock-offset
			// annotation stamped at import.
			node, _, ok := sp.Attr("node")
			if !ok {
				t.Fatalf("exec span %d has no node attribute", sp.ID)
			}
			nodes[node] = true
			if _, _, ok := sp.Attr("clock_offset_us"); !ok {
				t.Fatalf("exec span %d has no clock_offset_us annotation", sp.ID)
			}
		case telemetry.KindRun:
			runs++
			if got := kindOf(sp.Parent); got != telemetry.KindExec {
				t.Fatalf("run span %d parented by %q, want exec", sp.ID, got)
			}
		case telemetry.KindDispatch:
			dispatches++
			if got := kindOf(sp.Parent); got != telemetry.KindCell {
				t.Fatalf("dispatch span %d parented by %q, want cell", sp.ID, got)
			}
		case telemetry.KindCell:
			if got := kindOf(sp.Parent); got != telemetry.KindJob {
				t.Fatalf("cell span %d parented by %q, want job", sp.ID, got)
			}
		case telemetry.KindPhase:
			switch sp.Name {
			case "queue-wait":
				queueWaits++
			case "commit":
				commits++
			}
			if got := kindOf(sp.Parent); got != telemetry.KindCell {
				t.Fatalf("phase span %q parented by %q, want cell", sp.Name, got)
			}
		}
	}
	if execs != cells || runs != cells {
		t.Fatalf("got %d exec / %d run spans, want %d each", execs, runs, cells)
	}
	if dispatches < cells {
		t.Fatalf("got %d dispatch spans, want >= %d", dispatches, cells)
	}
	if queueWaits != cells || commits != cells {
		t.Fatalf("got %d queue-wait / %d commit phase spans, want %d each", queueWaits, commits, cells)
	}
	if len(nodes) != 2 {
		t.Fatalf("trace contains exec spans from %v, want both workers", nodes)
	}
	if got := tc.metric("thermserved_cluster_spans_imported_total"); got < float64(2*cells) {
		t.Fatalf("spans_imported_total = %v, want >= %d", got, 2*cells)
	}
}

// TestClusterEventsMatchStandalone: a cluster job's decision trace is read
// off the epoch spans its workers ship back with each cell, so /events on
// the coordinator serves the events a standalone pool serves for the same
// experiment. Cells finish in any order on either side, so the lines
// compare sorted.
func TestClusterEventsMatchStandalone(t *testing.T) {
	spec := service.Spec{Experiment: "table2", Quick: true}
	events := func(store *service.Store, pool *service.Pool, id string) []string {
		t.Helper()
		rec := httptest.NewRecorder()
		service.NewServer(store, pool).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("events: status %d: %s", rec.Code, rec.Body)
		}
		lines := strings.FieldsFunc(rec.Body.String(), func(r rune) bool { return r == '\n' })
		sort.Strings(lines)
		return lines
	}

	store := service.NewStore(0)
	pool := service.NewPool(store, 2)
	pool.Start()
	t.Cleanup(pool.Stop)
	job, err := pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if final, err := pool.Wait(ctx, job.ID); err != nil || final.State != service.StateDone {
		t.Fatalf("standalone job finished %s (%v): %s", final.State, err, final.Error)
	}
	want := events(store, pool, job.ID)

	tc := startTestCluster(t, testClusterConfig(), nil)
	tc.addWorker(2, nil)
	tc.addWorker(2, nil)
	final := tc.submitAndWait(spec, time.Minute)
	if final.State != service.StateDone {
		t.Fatalf("cluster job finished %s: %s", final.State, final.Error)
	}
	got := events(tc.store, tc.pool, final.ID)
	if len(want) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster /events serves %d lines, standalone %d; want the same events", len(got), len(want))
	}
}

// TestFederatedMetrics asserts the coordinator's /metrics (via the service
// server's AppendMetrics hook) exposes per-worker-labeled series federated
// from heartbeats, alongside the cluster aggregates, and that the whole
// exposition passes the Prometheus 0.0.4 lint.
func TestFederatedMetrics(t *testing.T) {
	tc := startTestCluster(t, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(4, 0))
	})
	tc.addWorker(2, stubExecutor(0))
	tc.addWorker(2, stubExecutor(0))
	tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)

	// Metrics arrive on heartbeats; wait for both workers' snapshots.
	waitFor(t, 5*time.Second, "federated snapshots from both workers", func() bool {
		fams := tc.coord.Membership().Federated()
		workers := make(map[string]bool)
		for _, fam := range fams {
			if fam.Name != "thermworker_capacity" {
				continue
			}
			for _, s := range fam.Series {
				workers[s.Labels] = true
			}
		}
		return len(workers) >= 2
	})

	srv := service.NewServer(tc.store, tc.pool)
	srv.AppendMetrics(tc.coord.WriteFederatedMetrics)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()

	for _, want := range []string{
		`thermworker_capacity{worker="w0"}`,
		`thermworker_capacity{worker="w1"}`,
		`thermworker_cells_executed_total{worker="w0"}`,
		"thermserved_cluster_shard_imbalance",
		"thermserved_cluster_dispatch_seconds_bucket",
		"thermserved_cluster_exec_seconds_bucket",
		"thermserved_cluster_commit_seconds_bucket",
		"thermserved_cluster_lease_churn_per_min",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if err := telemetry.ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition failed conformance lint: %v", err)
	}
}

// TestClusterStatusEndpoint exercises GET /v1/cluster/status.
func TestClusterStatusEndpoint(t *testing.T) {
	tc := startTestCluster(t, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(6, 0))
	})
	tc.addWorker(2, stubExecutor(0))
	tc.addWorker(2, stubExecutor(0))
	tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)

	rec := httptest.NewRecorder()
	tc.coord.StatusHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status endpoint answered %d: %s", rec.Code, rec.Body)
	}
	var st ClusterStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Alive != 2 || len(st.Workers) != 2 {
		t.Fatalf("status reports %d/%d workers, want 2", st.Alive, len(st.Workers))
	}
	if st.EventsTotal == 0 {
		t.Fatal("status reports no cluster events after a completed job")
	}
	var completed int64
	for _, w := range st.Workers {
		completed += w.Completed
	}
	if completed != 6 {
		t.Fatalf("workers report %d completed cells, want 6", completed)
	}
	total := 0
	for _, n := range st.ThroughputCPM {
		total += n
	}
	if total != 6 {
		t.Fatalf("throughput window counts %d commits, want 6", total)
	}
}

// TestClusterLiveSSE exercises the /v1/cluster/live stream: it must deliver a
// status frame and the cluster events recorded so far. The stream's first
// frame already carries every retained event, so the test does not wait on
// the poll period.
func TestClusterLiveSSE(t *testing.T) {
	tc := startTestCluster(t, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(3, 0))
	})
	tc.addWorker(2, stubExecutor(0))
	tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)

	srv := httptest.NewServer(tc.coord.StatusHandler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/cluster/live", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("live stream Content-Type = %q", ct)
	}

	var sawStatus bool
	events := make(map[string]int)
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "status":
				var st ClusterStatus
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					t.Fatalf("bad status frame: %v", err)
				}
				sawStatus = true
			case "cluster":
				var ev ClusterEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad cluster frame: %v", err)
				}
				events[ev.Kind]++
			}
		}
		if sawStatus && events[EventWorkerRegistered] > 0 && events[EventCellCommitted] >= 3 {
			break
		}
	}
	if !sawStatus {
		t.Fatal("live stream never delivered a status frame")
	}
	if events[EventWorkerRegistered] == 0 || events[EventLeaseGranted] == 0 || events[EventCellCommitted] < 3 {
		t.Fatalf("live stream events = %v, want registration, grants and 3 commits", events)
	}
}

// TestWorkerKillDiscardsSpans: a killed worker aborts its response, so
// neither the cell's result nor its span batch reaches the coordinator; the
// attempt fails and the trace imports nothing from it.
func TestWorkerKillDiscardsSpans(t *testing.T) {
	tc := startTestCluster(t, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(1, 0))
	})
	w := tc.addWorker(1, tracedExecutor(time.Minute))
	job, err := tc.pool.Submit(service.Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "cell in flight on worker", func() bool { return w.Inflight() == 1 })
	w.Kill()
	waitFor(t, 5*time.Second, "failed attempt", func() bool {
		return tc.metric("thermserved_cluster_leases_expired_total") >= 1
	})
	if got := tc.metric("thermserved_cluster_spans_imported_total"); got != 0 {
		t.Fatalf("spans_imported_total = %v after the worker was killed mid-cell, want 0", got)
	}
	tc.store.Cancel(job.ID)
}

// TestClusterRecorderStormDump: a reassignment burst trips the lease-storm
// anomaly exactly once per window and dumps the event ring; a death burst
// trips heartbeat-loss.
func TestClusterRecorderStormDump(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	rec := NewClusterRecorder(dir, time.Second, 3, 2, reg)
	for i := 0; i < 5; i++ {
		rec.Record(ClusterEvent{Kind: EventLeaseReassigned, Worker: "w0", Job: "j", Cell: i})
	}
	if got, _ := reg.Value("flightrec_alerts_total", telemetry.L("kind", telemetry.AnomalyLeaseStorm)); got != 1 {
		t.Fatalf("lease_storm alerts = %v, want 1 (cooldown must bound dumping)", got)
	}
	for i := 0; i < 2; i++ {
		rec.Record(ClusterEvent{Kind: EventWorkerDead, Worker: fmt.Sprintf("w%d", i)})
	}
	if got, _ := reg.Value("flightrec_alerts_total", telemetry.L("kind", telemetry.AnomalyHeartbeatLoss)); got != 1 {
		t.Fatalf("heartbeat_loss alerts = %v, want 1", got)
	}

	var dump struct {
		Anomalies []telemetry.Anomaly `json:"anomalies"`
		Events    []ClusterEvent      `json:"events"`
	}
	data, err := os.ReadFile(filepath.Join(dir, "flightrec-cluster.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Anomalies) != 2 {
		t.Fatalf("dump holds %d anomalies, want 2 (storm then heartbeat loss)", len(dump.Anomalies))
	}
	if len(dump.Events) != 7 {
		t.Fatalf("dump holds %d events, want all 7", len(dump.Events))
	}
}

// TestClusterRecorderSinceResync: a cursor that lags past ring overwrite
// resyncs at the oldest retained event without duplicates.
func TestClusterRecorderSinceResync(t *testing.T) {
	rec := NewClusterRecorder("", time.Second, -1, -1, telemetry.NewRegistry())
	_, cursor := rec.Since(0)
	for i := 0; i < clusterRingCapacity+100; i++ {
		rec.Record(ClusterEvent{Kind: EventLeaseGranted, Cell: i})
	}
	evs, next := rec.Since(cursor)
	if len(evs) != clusterRingCapacity {
		t.Fatalf("stale cursor drained %d events, want the %d retained", len(evs), clusterRingCapacity)
	}
	if evs[0].Cell != 100 || evs[len(evs)-1].Cell != clusterRingCapacity+99 {
		t.Fatalf("resync window [%d, %d], want [100, %d]", evs[0].Cell, evs[len(evs)-1].Cell, clusterRingCapacity+99)
	}
	if more, _ := rec.Since(next); len(more) != 0 {
		t.Fatalf("fresh cursor re-delivered %d events", len(more))
	}
}

// TestHeartbeatClockOffset: the worker derives a clock-offset estimate from
// the heartbeat response and reports it back, where the status surface and
// span import pick it up.
func TestHeartbeatClockOffset(t *testing.T) {
	tc := startTestCluster(t, testClusterConfig(), nil)
	w := tc.addWorker(1, stubExecutor(0))
	// Same-process clocks are identical, so the estimate must converge to ~0
	// — but the point is that it was set by the exchange, and reported.
	waitFor(t, 5*time.Second, "clock offset reported", func() bool {
		for _, ws := range tc.coord.Membership().Snapshot() {
			if ws.ID == w.cfg.ID {
				// Anything within 100ms proves the estimate is the
				// round-trip midpoint, not garbage.
				return ws.ClockOffsetUS > -100_000 && ws.ClockOffsetUS < 100_000 && w.clockOffsetUS.Load() != 0
			}
		}
		return false
	})
}

// windowAttrs are the numeric attributes windowExecutor gives window i of
// cell: values JSON would have lost (−0 under omitempty) or rounded
// differently sit beside ordinary ones.
func windowAttrs(cell, i int) []telemetry.Attr {
	return []telemetry.Attr{
		telemetry.Num("time_s", float64(i)*10),
		telemetry.Num("peak_c", 40+float64(cell)/3+float64(i)/7),
		telemetry.Num("core0_mean_w", math.Copysign(0, -1)),
		telemetry.Num("core1_mean_c", 1e-300*float64(cell+1)),
		telemetry.Str("phase", "exploration"),
	}
}

// windowExecutor records what sim's window aggregation does under the
// propagated exec span: a run span with three window children carrying
// windowAttrs.
func windowExecutor() Executor {
	return func(ctx context.Context, spec service.Spec, cell int, _ json.RawMessage) (json.RawMessage, error) {
		tr, parent := telemetry.SpanFromContext(ctx)
		run := tr.Start(parent, telemetry.KindRun, fmt.Sprintf("run-%03d", cell))
		for i := 0; i < 3; i++ {
			tr.Record(run, telemetry.KindWindow, fmt.Sprintf("window %d", i), tr.Now(), 1, windowAttrs(cell, i)...)
		}
		tr.End(run)
		return json.Marshal(stubRow(cell))
	}
}

// TestClusterWindowAttrsCrossTheWire: window spans recorded on the workers
// reach the coordinator's job trace with the attributes they were recorded
// with, bit for bit, under fresh IDs that keep the run → window links, with
// the batch's exec root carrying node and clock_offset_us.
func TestClusterWindowAttrsCrossTheWire(t *testing.T) {
	const cells = 6
	tc := startTestCluster(t, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(cells, 0))
	})
	tc.addWorker(2, windowExecutor())
	tc.addWorker(2, windowExecutor())
	job := tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, time.Minute)
	if job.State != service.StateDone {
		t.Fatalf("job finished %s: %s", job.State, job.Error)
	}
	tracer, _ := tc.store.Tracer(job.ID)
	spans := tracer.Snapshot()
	byID := make(map[telemetry.SpanID]telemetry.Span, len(spans))
	for _, sp := range spans {
		if _, dup := byID[sp.ID]; dup {
			t.Fatalf("span id %d appears twice in the merged trace", sp.ID)
		}
		byID[sp.ID] = sp
	}
	windows := 0
	for _, sp := range spans {
		if sp.Kind != telemetry.KindWindow {
			continue
		}
		windows++
		run := byID[sp.Parent]
		var cell, i int
		if _, err := fmt.Sscanf(run.Name, "run-%d", &cell); err != nil || run.Kind != telemetry.KindRun {
			t.Fatalf("window %q parented by %s %q", sp.Name, run.Kind, run.Name)
		}
		if _, err := fmt.Sscanf(sp.Name, "window %d", &i); err != nil {
			t.Fatal(err)
		}
		if want := windowAttrs(cell, i); !equalSpans([]telemetry.Span{{Attrs: sp.Attrs}}, []telemetry.Span{{Attrs: want}}) {
			t.Fatalf("cell %d window %d arrived with %+v, want %+v", cell, i, sp.Attrs, want)
		}
		exec := byID[run.Parent]
		if exec.Kind != telemetry.KindExec || byID[exec.Parent].Kind != telemetry.KindDispatch {
			t.Fatalf("run-%03d hangs under %s %q, want an exec span under a dispatch span", cell, exec.Kind, exec.Name)
		}
		for _, key := range []string{"node", "clock_offset_us"} {
			if _, _, ok := exec.Attr(key); !ok {
				t.Fatalf("exec span %q has no %s attribute", exec.Name, key)
			}
		}
	}
	if windows != 3*cells {
		t.Fatalf("merged trace holds %d window spans, want %d", windows, 3*cells)
	}
}

// stubWorker starts a cluster whose one worker is a bare HTTP server
// answering each assignment through answer, registers it and submits a
// one-cell job.
func stubWorker(t *testing.T, answer func(w http.ResponseWriter, r *http.Request, req AssignRequest)) (*testCluster, service.Job) {
	t.Helper()
	cfg := testClusterConfig()
	cfg.HeartbeatEvery = time.Minute // the stub worker never heartbeats
	tc := startTestCluster(t, cfg, func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(1, 0))
	})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req AssignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("stub worker: %v", err)
		}
		if !req.Trace {
			t.Error("assignment asks for no trace; the job should be traced")
		}
		answer(w, r, req)
	}))
	t.Cleanup(func() {
		stub.CloseClientConnections()
		stub.Close()
	})
	tc.register(t, "stub", stub.URL)
	job, err := tc.pool.Submit(service.Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return tc, job
}

// register registers a worker that is not a Worker (a stub server) with one
// slot.
func (tc *testCluster) register(t *testing.T, id, url string) {
	t.Helper()
	body, err := json.Marshal(RegisterRequest{ID: id, URL: url, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := postJSON(context.Background(), tc.coordSrv.Client(), "", tc.coordSrv.URL+"/cluster/v2/register", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register answered %d", resp.StatusCode)
	}
}

// answerRow answers an assignment with its cell's stub row.
func answerRow(t *testing.T, w http.ResponseWriter, req AssignRequest) {
	row, err := json.Marshal(stubRow(req.Cell))
	if err != nil {
		t.Error(err)
	}
	httpJSON(w, http.StatusOK, AssignResponse{Row: row})
}

// TestMalformedSpanBatchCommitsRow: a result whose span batch does not
// decode still commits its row, since reassigning the cell would only run it
// again, and it imports no spans.
func TestMalformedSpanBatchCommitsRow(t *testing.T) {
	bad := append([]byte{batchVersion + 1}, telemetry.EncodeSpanBatch(recordedBatch(t))[1:]...)
	tc, job := stubWorker(t, func(w http.ResponseWriter, _ *http.Request, req AssignRequest) {
		row, err := json.Marshal(stubRow(req.Cell))
		if err != nil {
			t.Error(err)
		}
		httpJSON(w, http.StatusOK, AssignResponse{Row: row, SpanBatch: bad})
	})
	final := tc.wait(job.ID, time.Minute)
	if final.State != service.StateDone || final.Progress.DoneCells != 1 {
		t.Fatalf("job finished %s with %d cells: %s", final.State, final.Progress.DoneCells, final.Error)
	}
	rows, _ := tc.store.Rows(job.ID)
	if got := rows.([]experiments.SuiteRow); len(got) != 1 || got[0] != stubRow(0) {
		t.Fatalf("committed rows %+v, want [%+v]", got, stubRow(0))
	}
	if got := tc.metric("thermserved_cluster_spans_imported_total"); got != 0 {
		t.Fatalf("spans_imported_total = %v after an undecodable batch, want 0", got)
	}
	if got := tc.metric("thermserved_cluster_leases_expired_total"); got != 0 {
		t.Fatalf("leases_expired_total = %v, want 0: the attempt succeeded", got)
	}
}

// TestCommitPhaseCoversDecode: a cell's commit phase opens when the
// response headers reach the coordinator, so it covers reading and decoding
// the body. The result here carries 8 MiB of whitespace between its fields,
// which takes milliseconds to decode; the row inside takes microseconds, and
// is all a phase opened after the decode would time.
func TestCommitPhaseCoversDecode(t *testing.T) {
	row, err := json.Marshal(stubRow(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := json.Marshal(AssignResponse{Row: row})
	if err != nil {
		t.Fatal(err)
	}
	padded := append(append([]byte("{"), bytes.Repeat([]byte(" "), 8<<20)...), res[1:]...)
	decodeStart := time.Now()
	if err := json.Unmarshal(padded, &AssignResponse{}); err != nil {
		t.Fatal(err)
	}
	decode := time.Since(decodeStart)
	tc, job := stubWorker(t, func(w http.ResponseWriter, _ *http.Request, _ AssignRequest) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(padded) //nolint:errcheck // the job check below fails if it did not arrive
	})
	if final := tc.wait(job.ID, time.Minute); final.State != service.StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	tracer, _ := tc.store.Tracer(job.ID)
	for _, sp := range tracer.Snapshot() {
		if sp.Kind == telemetry.KindPhase && sp.Name == "commit" {
			if got := time.Duration(sp.DurUS) * time.Microsecond; got < decode/2 {
				t.Fatalf("commit phase lasted %v; decoding the result alone takes %v", got, decode)
			}
			return
		}
	}
	t.Fatal("job trace has no commit phase span")
}

// heartbeatProbe is one heartbeat metrics payload and whether the
// coordinator accepts it.
type heartbeatProbe struct {
	name    string
	metrics []telemetry.SampleFamily
	ok      bool
}

// heartbeatProbes are a real worker's snapshot, which the coordinator
// accepts, and payloads it must refuse, each one a way a beat could corrupt
// or fail the federated /metrics page.
func heartbeatProbes() []heartbeatProbe {
	gauge := func(name, labels string) []telemetry.SampleFamily {
		return []telemetry.SampleFamily{{Name: name, Kind: "gauge", Series: []telemetry.SampleSeries{{Labels: labels, Value: 1}}}}
	}
	return []heartbeatProbe{
		{"worker snapshot", offlineWorker(0).reg.Sample(), true},
		{"line injected through labels", gauge("thermworker_inflight", "{a=\"1\"}\nfake_metric 1\n#"), false},
		{"metric name with a space", gauge("thermworker_bad name", ""), false},
		{"summary kind", []telemetry.SampleFamily{{Name: "thermworker_latency", Kind: "summary",
			Series: []telemetry.SampleSeries{{Value: 1}}}}, false},
		{"buckets 5 then 1", []telemetry.SampleFamily{{Name: "thermworker_exec_seconds", Kind: "histogram",
			Series: []telemetry.SampleSeries{{Bounds: []float64{0.1, 1}, Cumulative: []int64{5, 1}, Count: 5, Sum: 1}}}}, false},
		{"comma in a label value", gauge("thermworker_inflight", `{a="x,y"}`), false},
		{"coordinator's prefix", gauge("thermserved_cluster_workers_alive", ""), false},
	}
}

// beatFleet resets c's membership to w0, heartbeating snapshot, and w1,
// registered without metrics.
func beatFleet(tb testing.TB, c *Coordinator, snapshot []telemetry.SampleFamily) {
	c.members = NewMembership()
	for _, id := range []string{"w0", "w1"} {
		if err := c.members.Register(id, "http://"+id, 1); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.members.Heartbeat("w0", 0, snapshot); err != nil {
		tb.Fatal(err)
	}
}

// beat posts w1's heartbeat body to c and returns the status and the
// federated exposition afterwards.
func beat(tb testing.TB, c *Coordinator, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/v2/heartbeat", bytes.NewReader(body)))
	var page strings.Builder
	if err := c.WriteFederatedMetrics(&page); err != nil {
		tb.Fatal(err)
	}
	return rec.Code, page.String()
}

// TestHeartbeatRefusesBadMetrics: the coordinator federates a real worker's
// snapshot and answers each bad payload 400, leaving the federated page as
// it was.
func TestHeartbeatRefusesBadMetrics(t *testing.T) {
	c := NewCoordinator(service.NewPool(service.NewStore(0), 1), testClusterConfig())
	snapshot := offlineWorker(0).reg.Sample()
	for _, p := range heartbeatProbes() {
		beatFleet(t, c, snapshot)
		_, before := beat(t, c, nil)
		body, err := json.Marshal(HeartbeatRequest{ID: "w1", Metrics: p.metrics})
		if err != nil {
			t.Fatal(err)
		}
		code, after := beat(t, c, body)
		switch {
		case p.ok && code != http.StatusOK:
			t.Errorf("%s: answered %d, want 200", p.name, code)
		case p.ok && !strings.Contains(after, `thermworker_capacity{worker="w1"} `):
			t.Errorf("%s: federated page lacks w1's series:\n%s", p.name, after)
		case !p.ok && code != http.StatusBadRequest:
			t.Errorf("%s: answered %d, want 400", p.name, code)
		case !p.ok && after != before:
			t.Errorf("%s: refused beat changed the federated page:\n%s", p.name, after)
		}
		if err := telemetry.ValidatePrometheus(strings.NewReader(after)); err != nil {
			t.Errorf("%s: federated page fails the lint: %v", p.name, err)
		}
	}
}

// FuzzHeartbeatMetrics fuzzes the metrics a heartbeat carries: whenever the
// coordinator accepts a beat, its federated exposition passes
// telemetry.ValidatePrometheus, and a beat it refuses changes nothing.
func FuzzHeartbeatMetrics(f *testing.F) {
	for _, p := range heartbeatProbes() {
		metrics, err := json.Marshal(p.metrics)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(metrics)
	}
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.DiscardHandler))
	f.Cleanup(func() { slog.SetDefault(prev) })
	c := NewCoordinator(service.NewPool(service.NewStore(0), 1), testClusterConfig())
	snapshot := offlineWorker(0).reg.Sample()
	f.Fuzz(func(t *testing.T, metrics []byte) {
		beatFleet(t, c, snapshot)
		_, before := beat(t, c, nil)
		body := append(append([]byte(`{"id":"w1","metrics":`), metrics...), '}')
		code, after := beat(t, c, body)
		if code != http.StatusOK {
			if after != before {
				t.Fatalf("heartbeat answered %d but changed the federated page:\n%s", code, after)
			}
			return
		}
		if err := telemetry.ValidatePrometheus(strings.NewReader(after)); err != nil {
			t.Fatalf("accepted heartbeat federates a page that fails the lint: %v\n%s", err, after)
		}
	})
}
