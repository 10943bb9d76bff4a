package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/rl"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Executor runs one cell of a job spec on a worker node and returns the
// row's JSON. The default, ExecuteCell, replans the spec with
// campaign.Cells; tests and benchmarks substitute stubs.
type Executor func(ctx context.Context, spec service.Spec, cell int, warmAgent json.RawMessage) (json.RawMessage, error)

// workerSpanBatchCap bounds the span batch shipped back with one result.
// The newest spans win — and because the exec root span ends last, the tail
// always contains it, so the batch stays attachable under the coordinator's
// dispatch span.
const workerSpanBatchCap = 512

// WorkerConfig parameterizes a worker node.
type WorkerConfig struct {
	// ID uniquely names this worker to the coordinator.
	ID string
	// CoordinatorURL is the coordinator's base URL.
	CoordinatorURL string
	// AdvertiseURL is this worker's base URL as reachable from the
	// coordinator.
	AdvertiseURL string
	// Capacity bounds concurrent cell executions; <= 0 selects
	// runtime.NumCPU().
	Capacity int
	// Secret, when non-empty, is the cluster shared secret: it is sent as a
	// bearer token on every worker → coordinator request and demanded on
	// incoming assignments. Must match the coordinator's Config.Secret.
	Secret string
	// Client performs worker → coordinator requests; nil selects a client
	// with a 10s timeout.
	Client *http.Client
}

// Worker is one cluster execution node: it registers with the coordinator,
// heartbeats, and accepts cell assignments up to its capacity, answering
// each one with the cell's result once the cell has run.
type Worker struct {
	cfg    WorkerConfig
	exec   Executor
	client *http.Client
	mux    *http.ServeMux
	reg    *telemetry.Registry
	log    *slog.Logger

	// ctx bounds every cell execution. It stays live through a graceful Stop
	// (in-flight cells finish and answer) and is cancelled only by Kill — or
	// by Stop after the drain, as a backstop.
	ctx    context.Context
	cancel context.CancelFunc
	// wg tracks the heartbeat loop and every in-flight assignment. stopMu
	// serializes handleAssign's wg.Add against Stop's wg.Wait: once stopping
	// is set no new execution may join the group, so the drain cannot race a
	// late assignment (sync.WaitGroup forbids Add concurrent with Wait from
	// zero). stop is closed when shutdown begins, halting the heartbeat loop
	// and registration retries.
	wg       sync.WaitGroup
	stopMu   sync.Mutex
	stopping bool
	stop     chan struct{}

	inflight atomic.Int64
	executed atomic.Int64
	failed   atomic.Int64
	// clockOffsetUS is the latest estimate of (coordinator clock - worker
	// clock) in microseconds, from heartbeat round trips. Span batches are
	// shifted by it before shipping, so the merged trace sits on one clock.
	clockOffsetUS atomic.Int64
	// killed simulates a crash for failure-path tests: heartbeats stop, new
	// assignments are refused, and in-flight responses are aborted instead of
	// answered — the process keeps running but the node is gone as far as
	// the cluster can tell.
	killed atomic.Bool

	// heartbeatEvery arrives from the coordinator at registration.
	mu             sync.Mutex
	heartbeatEvery time.Duration
}

// NewWorker builds a worker node (not yet registered; call Start).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" || cfg.CoordinatorURL == "" || cfg.AdvertiseURL == "" {
		return nil, fmt.Errorf("cluster: worker needs id, coordinator url and advertise url")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.NumCPU()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		cfg:            cfg,
		exec:           ExecuteCell,
		client:         cfg.Client,
		mux:            http.NewServeMux(),
		reg:            telemetry.NewRegistry(),
		log:            telemetry.Component("worker").With("worker", cfg.ID),
		ctx:            ctx,
		cancel:         cancel,
		stop:           make(chan struct{}),
		heartbeatEvery: DefaultHeartbeatEvery,
	}
	w.reg.GaugeFunc("thermworker_inflight", "Cells currently executing on this worker.",
		func() float64 { return float64(w.inflight.Load()) })
	w.reg.GaugeFunc("thermworker_capacity", "Configured concurrent cell capacity.",
		func() float64 { return float64(cfg.Capacity) })
	w.reg.CounterFunc("thermworker_cells_executed_total", "Cells executed successfully.",
		func() float64 { return float64(w.executed.Load()) })
	w.reg.CounterFunc("thermworker_cells_failed_total", "Cells that returned an error.",
		func() float64 { return float64(w.failed.Load()) })
	w.reg.GaugeFunc("thermworker_clock_offset_us",
		"Estimated coordinator-minus-worker clock offset, microseconds.",
		func() float64 { return float64(w.clockOffsetUS.Load()) })
	// Learning health rides the same heartbeat bus as every other worker
	// metric: the coordinator federates these on /metrics and sums them into
	// /v1/cluster/status, so fleet-wide convergence is visible from one
	// scrape. The counters are process-wide (rl package totals), which is
	// exact for the one-worker-per-process deployment this repo ships.
	w.reg.CounterFunc("thermworker_learning_runs_total",
		"Learning-curve sampled runs finalized in this worker process.",
		func() float64 { runs, _, _ := rl.LearningStats(); return float64(runs) })
	w.reg.CounterFunc("thermworker_learning_converged_total",
		"Sampled runs whose greedy policy converged in this worker process.",
		func() float64 { _, conv, _ := rl.LearningStats(); return float64(conv) })
	w.reg.GaugeFunc("thermworker_learning_last_converge_epoch",
		"Converge epoch of this worker process's most recently converged run.",
		func() float64 { _, _, last := rl.LearningStats(); return float64(last) })
	w.mux.HandleFunc("POST /cluster/v2/assign", w.handleAssign)
	w.mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	w.mux.Handle("GET /metrics", telemetry.Handler(w.reg, telemetry.Default()))
	return w, nil
}

// SetExecutor replaces the cell executor (tests, benchmarks). Set before
// Start.
func (w *Worker) SetExecutor(e Executor) { w.exec = e }

// Handler serves the worker's HTTP surface (assign, healthz, metrics).
func (w *Worker) Handler() http.Handler { return w.mux }

// Inflight is the number of cells currently executing.
func (w *Worker) Inflight() int64 { return w.inflight.Load() }

// Executed is the lifetime count of successfully executed cells.
func (w *Worker) Executed() int64 { return w.executed.Load() }

// Start registers with the coordinator (retrying until ctx expires) and
// launches the heartbeat loop.
func (w *Worker) Start(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.wg.Add(1)
	go w.heartbeatLoop()
	return nil
}

// beginStop marks the worker as stopping — new assignments are refused with
// 503 — and halts the heartbeat loop and registration retries. Safe to call
// more than once.
func (w *Worker) beginStop() {
	w.stopMu.Lock()
	defer w.stopMu.Unlock()
	if !w.stopping {
		w.stopping = true
		close(w.stop)
	}
}

// Stop drains the worker gracefully: new assignments are refused, heartbeats
// halt, and in-flight executions run to completion with a live context and
// answer with their results before the execution context is finally
// cancelled. Cancelling first would make every in-flight cell return
// "context canceled" and answer that as a cell failure, which the
// coordinator would journal permanently — a routine SIGTERM must never
// commit spurious failures. Keep the HTTP server serving until Stop returns,
// so those answers reach the wire.
func (w *Worker) Stop() {
	w.beginStop()
	w.wg.Wait()
	w.cancel()
}

// Kill simulates a crash (tests): the worker stops heartbeating, refuses new
// assignments, aborts in-flight executions and their responses, so no result
// arrives.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.beginStop()
	w.cancel()
}

// register announces the worker and adopts the coordinator's heartbeat
// period, retrying while the coordinator is unreachable.
func (w *Worker) register(ctx context.Context) error {
	req := RegisterRequest{ID: w.cfg.ID, URL: w.cfg.AdvertiseURL, Capacity: w.cfg.Capacity}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	for {
		resp, err := postJSON(ctx, w.client, w.cfg.Secret, w.cfg.CoordinatorURL+"/cluster/v2/register", body)
		if err == nil {
			var rr RegisterResponse
			decErr := json.NewDecoder(resp.Body).Decode(&rr)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("cluster: register %s: coordinator answered %d", w.cfg.ID, resp.StatusCode)
			}
			if decErr != nil {
				return fmt.Errorf("cluster: register %s: bad response: %w", w.cfg.ID, decErr)
			}
			if rr.HeartbeatEveryMs > 0 {
				w.mu.Lock()
				w.heartbeatEvery = time.Duration(rr.HeartbeatEveryMs) * time.Millisecond
				w.mu.Unlock()
			}
			w.log.Info("registered", "coordinator", w.cfg.CoordinatorURL, "capacity", w.cfg.Capacity)
			return nil
		}
		w.log.Warn("coordinator unreachable, retrying registration", "err", err)
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return ctx.Err()
		case <-w.stop:
			return context.Canceled
		}
	}
}

// heartbeatLoop keeps the registration alive; a 404 (coordinator restarted
// and lost the membership) triggers re-registration. Each beat doubles as the
// telemetry bus (registry snapshot out, coordinator clock back): the response
// timestamp against the round trip's midpoint yields the clock-offset
// estimate used to align span batches.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		every := w.heartbeatEvery
		w.mu.Unlock()
		select {
		case <-w.stop:
			return
		case <-time.After(every):
		}
		hb, err := json.Marshal(HeartbeatRequest{
			ID:            w.cfg.ID,
			ClockOffsetUS: w.clockOffsetUS.Load(),
			Metrics:       w.reg.Sample(),
		})
		if err != nil {
			continue
		}
		t0 := time.Now()
		resp, err := postJSON(w.ctx, w.client, w.cfg.Secret, w.cfg.CoordinatorURL+"/cluster/v2/heartbeat", hb)
		rtt := time.Since(t0)
		if err != nil {
			w.log.Warn("heartbeat failed", "err", err)
			continue
		}
		var hr struct {
			HeartbeatResponse
			Error string `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&hr)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			// offset = coordinator's clock at response minus the round trip's
			// midpoint (the classic NTP-style symmetric-delay assumption; the
			// error is bounded by rtt/2).
			if decErr == nil {
				mid := t0.UnixMicro() + rtt.Microseconds()/2
				w.clockOffsetUS.Store(hr.NowUS - mid)
			}
		case http.StatusNotFound:
			w.log.Info("coordinator forgot this worker, re-registering")
			if err := w.register(w.ctx); err != nil {
				w.log.Warn("re-registration failed", "err", err)
			}
		default:
			w.log.Warn("heartbeat refused", "status", resp.StatusCode, "err", hr.Error)
		}
	}
}

// handleAssign runs one cell and answers with its result once the cell has
// run. The cell's context ends when the coordinator drops the request or
// Kill runs.
func (w *Worker) handleAssign(rw http.ResponseWriter, r *http.Request) {
	if !checkSecret(r, w.cfg.Secret) {
		httpError(rw, http.StatusUnauthorized, "cluster secret required")
		return
	}
	if w.killed.Load() {
		httpError(rw, http.StatusServiceUnavailable, "worker %s is shutting down", w.cfg.ID)
		return
	}
	var req AssignRequest
	if !decodeBody(rw, r, &req, "assignment", maxAssignBody) {
		return
	}
	// The coordinator bounds inflight through its slot accounting; this is
	// the worker's own backstop (a refused attempt reassigns the cell, it
	// does not lose it).
	if n := w.inflight.Add(1); n > int64(w.cfg.Capacity) {
		w.inflight.Add(-1)
		httpError(rw, http.StatusTooManyRequests, "worker %s at capacity (%d inflight)", w.cfg.ID, w.cfg.Capacity)
		return
	}
	// Join the WaitGroup under stopMu: once Stop has set stopping and moved
	// on to wg.Wait, no new execution may appear, so refuse with 503 — the
	// attempt fails and the cell reassigns to a live worker.
	w.stopMu.Lock()
	if w.stopping {
		w.stopMu.Unlock()
		w.inflight.Add(-1)
		httpError(rw, http.StatusServiceUnavailable, "worker %s is shutting down", w.cfg.ID)
		return
	}
	w.wg.Add(1)
	w.stopMu.Unlock()
	defer w.wg.Done()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(w.ctx, cancel)()
	res := w.run(ctx, req)
	if w.killed.Load() {
		// Crashed: the result — and its trace — dies with the node.
		panic(http.ErrAbortHandler)
	}
	httpJSON(rw, http.StatusOK, res)
}

// run executes one assignment and returns its result. When the assignment
// asks for a trace, the cell runs under a per-assignment tracer rooted at an
// exec span — experiments.TracedConfig picks the (tracer, span) pair off the
// context, so run/window/epoch spans nest under it automatically — and the
// batch rides on the result, timestamps pre-shifted into the coordinator's
// clock.
func (w *Worker) run(ctx context.Context, req AssignRequest) AssignResponse {
	var (
		tracer   *telemetry.Tracer
		execSpan telemetry.SpanID
	)
	if req.Trace {
		tracer, execSpan = w.execTracer(req)
		ctx = telemetry.ContextWithSpan(ctx, tracer, execSpan)
	}
	execStart := time.Now()
	row, err := w.exec(ctx, req.Spec, req.Cell, req.WarmAgent)
	res := AssignResponse{ExecUS: time.Since(execStart).Microseconds()}
	if err != nil {
		w.failed.Add(1)
		res.Err = err.Error()
	} else {
		w.executed.Add(1)
		res.Row = row
	}
	tracer.End(execSpan, telemetry.Bool("error", err != nil))
	// Free the slot before answering: the coordinator releases its side of
	// the slot the moment the answer lands and may assign the next cell
	// immediately — decrementing after the answer would bounce that
	// assignment off the capacity backstop.
	w.inflight.Add(-1)
	if tracer != nil {
		res.SpanBatch = telemetry.EncodeSpanBatch(w.spanBatch(tracer))
	}
	return res
}

// execTracer opens the tracer a traced assignment runs under, rooted at its
// exec span.
func (w *Worker) execTracer(req AssignRequest) (*telemetry.Tracer, telemetry.SpanID) {
	tracer := telemetry.NewTracer(workerSpanBatchCap)
	return tracer, tracer.Start(0, telemetry.KindExec,
		fmt.Sprintf("exec %s/%d", req.Job, req.Cell),
		telemetry.Str("worker", w.cfg.ID),
		telemetry.Num("cell", float64(req.Cell)))
}

// spanBatch snapshots the assignment's tracer into a bounded, clock-aligned
// batch: the newest workerSpanBatchCap spans, start times shifted by the
// current coordinator-clock offset estimate.
func (w *Worker) spanBatch(tr *telemetry.Tracer) []telemetry.Span {
	spans := tr.Snapshot()
	if len(spans) > workerSpanBatchCap {
		spans = spans[len(spans)-workerSpanBatchCap:]
	}
	if off := w.clockOffsetUS.Load(); off != 0 {
		for i := range spans {
			spans[i].StartUS += off
		}
	}
	return spans
}

// ExecuteCell is the default executor: rebuild the job's deterministic cell
// plan from its spec and run one cell. Cells are explicitly seeded, so the
// row is bit-identical to what the coordinator would compute in standalone
// mode; the JSON round trip is exact (Go encodes float64 in shortest form).
// The planner and warm-start routing are the same code the coordinator's pool
// runs (campaign.Cells / campaign.ApplyWarmPayload), so tournament cells and
// non-proposed checkpoint kinds shard identically.
func ExecuteCell(ctx context.Context, spec service.Spec, cell int, warmAgent json.RawMessage) (json.RawMessage, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := spec.Config()
	if err := campaign.ApplyWarmPayload(&cfg, spec.Experiment, warmAgent); err != nil {
		return nil, fmt.Errorf("cluster: bad warm-start agent payload: %w", err)
	}
	cells, _, err := campaign.Cells(cfg, spec.Experiment)
	if err != nil {
		return nil, err
	}
	if cell < 0 || cell >= len(cells) {
		return nil, fmt.Errorf("cluster: cell %d out of range (plan has %d)", cell, len(cells))
	}
	row, err := experiments.RunCell(ctx, cells[cell])
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(row)
	if err != nil {
		return nil, fmt.Errorf("cluster: cell %d row not marshalable: %w", cell, err)
	}
	return out, nil
}
