package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Coordinator is the cluster's control plane. It owns the membership and
// the cluster HTTP endpoints, and plugs into the service pool as its
// CellRunner: the pool keeps doing submission, journaling, recovery and
// aggregation exactly as in standalone mode, while every cell execution is
// handed to a registered worker instead of running in-process.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	pool    *service.Pool
	members *Membership
	events  *ClusterRecorder
	mux     *http.ServeMux
	status  *http.ServeMux
	log     *slog.Logger
	// attempts counts cell attempts in flight (the leases_active gauge).
	attempts atomic.Int64

	// sweeper lifecycle.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	leasesGranted    *telemetry.Counter
	leasesReassigned *telemetry.Counter
	leasesExpired    *telemetry.Counter
	workersDead      *telemetry.Counter
	spansImported    *telemetry.Counter
	dispatchSeconds  *telemetry.Histogram
	execSeconds      *telemetry.Histogram
	commitSeconds    *telemetry.Histogram
}

// NewCoordinator builds a coordinator over pool and installs itself as the
// pool's cell runner. Call Start before serving traffic and Stop on
// shutdown. The pool's registry gains the cluster metrics, so /metrics
// exposes them alongside the job metrics.
func NewCoordinator(pool *service.Pool, cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	// Each attempt holds one connection to its worker until the cell ends.
	// Keep as many idle as there are dispatchers, not the default two per
	// host, so a worker with more slots is not re-dialled for every cell.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = DefaultDispatchWidth
	transport.MaxIdleConnsPerHost = DefaultDispatchWidth
	c := &Coordinator{
		cfg:     cfg,
		client:  &http.Client{Transport: transport},
		pool:    pool,
		members: NewMembership(),
		events:  NewClusterRecorder(cfg.FlightDir, DefaultStormWindow, DefaultStormReassigns, DefaultStormDeaths, pool.Registry()),
		mux:     http.NewServeMux(),
		status:  http.NewServeMux(),
		log:     telemetry.Component("coordinator"),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	reg := pool.Registry()
	c.leasesGranted = reg.Counter("thermserved_cluster_leases_granted_total", "Cell attempts (leases) handed to workers.")
	c.leasesReassigned = reg.Counter("thermserved_cluster_leases_reassigned_total", "Cells reassigned after an attempt failed.")
	c.leasesExpired = reg.Counter("thermserved_cluster_leases_expired_total", "Attempts that failed before their result arrived.")
	c.workersDead = reg.Counter("thermserved_cluster_workers_dead_total", "Workers declared dead after missing heartbeats.")
	c.spansImported = reg.Counter("thermserved_cluster_spans_imported_total", "Worker-side spans merged into coordinator job traces.")
	c.dispatchSeconds = reg.Histogram("thermserved_cluster_dispatch_seconds",
		"Latency from lease grant to the cell result arriving at the coordinator.", telemetry.DefBuckets)
	c.execSeconds = reg.Histogram("thermserved_cluster_exec_seconds",
		"Worker-side cell execution wall time, as reported with the result.", telemetry.DefBuckets)
	c.commitSeconds = reg.Histogram("thermserved_cluster_commit_seconds",
		"Coordinator-side commit latency: result arrival to row decoded and returned to the pool.", telemetry.DefBuckets)
	reg.GaugeFunc("thermserved_cluster_workers_alive", "Workers currently registered and heartbeating.",
		func() float64 { return float64(c.members.Alive()) })
	reg.GaugeFunc("thermserved_cluster_leases_active", "Cell attempts currently in flight.",
		func() float64 { return float64(c.attempts.Load()) })
	reg.GaugeFunc("thermserved_cluster_shard_imbalance",
		"Max over mean lifetime cell assignments across live workers (1.0 = balanced, 0 = fewer than two loaded workers).",
		func() float64 { return c.members.Imbalance() })
	reg.GaugeFunc("thermserved_cluster_lease_churn_per_min",
		"Lease reassignments within the trailing minute.",
		func() float64 { return float64(c.events.RecentReassigns()) })

	c.mux.HandleFunc("POST /cluster/v2/register", c.handleRegister)
	c.mux.HandleFunc("POST /cluster/v2/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("GET /cluster/v2/workers", c.handleWorkers)
	c.status.HandleFunc("GET /v1/cluster/status", c.handleStatus)
	c.status.HandleFunc("GET /v1/cluster/live", c.handleLiveStatus)

	pool.SetCellRunner(c.RunCell)
	return c
}

// Membership exposes the worker registry (tests and the workers endpoint).
func (c *Coordinator) Membership() *Membership { return c.members }

// Handler serves the /cluster/v2/* routes; mount it on the same listener as
// the public API. With Config.Secret set, every route demands the shared
// bearer token.
func (c *Coordinator) Handler() http.Handler { return requireSecret(c.cfg.Secret, c.mux) }

// Start launches the heartbeat-expiry sweeper.
func (c *Coordinator) Start() {
	go func() {
		defer close(c.done)
		period := c.cfg.expireAfter() / 4
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-c.ctx.Done():
				return
			case <-tick.C:
				for _, id := range c.members.Sweep(c.cfg.expireAfter()) {
					c.workersDead.Inc()
					c.events.Record(ClusterEvent{Kind: EventWorkerDead, Worker: id})
					c.log.Warn("worker dead (missed heartbeats); its cells in flight reassign", "worker", id)
				}
			}
		}
	}()
}

// Stop halts the sweeper. Stop the pool first so no dispatch is in flight.
func (c *Coordinator) Stop() {
	c.cancel()
	<-c.done
}

// RunCell is the pool's CellRunner in cluster mode: hand the cell to the
// live worker with the most free capacity and read its result from the
// response, and reassign when the attempt fails — to another worker when one
// has a free slot — forever, until the job's context is cut.
// Only cells without a journaled outcome ever reach this point (the pool
// re-feeds exactly the uncommitted cells, live or after a restart), and a
// failed attempt's request is cancelled before the next one starts, so
// reassignment can never double-commit a cell.
func (c *Coordinator) RunCell(ctx context.Context, job string, spec service.Spec, idx int, cell experiments.Cell) (any, string, error) {
	warm, err := c.warmPayload(spec)
	if err != nil {
		return nil, "", err
	}
	// The pool's runTask installs the job tracer and the cell span on the
	// dispatch context; every tracer method is nil-safe, so standalone tests
	// that call RunCell without one need no branches here.
	tracer, cellSpan := telemetry.SpanFromContext(ctx)
	// Without HTML escaping, re-encoding the campaign document and the warm
	// payload never lengthens them, so the body stays within maxAssignBody.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(AssignRequest{Job: job, Cell: idx, Spec: spec, WarmAgent: warm, Trace: tracer != nil}); err != nil {
		return nil, "", fmt.Errorf("cluster: assignment for %s/%d: %w", job, idx, err)
	}
	body := buf.Bytes()
	avoid := ""
	for attempt := 0; ; attempt++ {
		wid, wurl, alive, err := c.members.Acquire(ctx, avoid)
		if err != nil {
			return nil, "", err
		}
		c.leasesGranted.Inc()
		c.events.Record(ClusterEvent{Kind: EventLeaseGranted, Worker: wid, Job: job, Cell: idx})
		if attempt > 0 {
			c.leasesReassigned.Inc()
			c.events.Record(ClusterEvent{Kind: EventLeaseReassigned, Worker: wid, Job: job, Cell: idx,
				Detail: fmt.Sprintf("attempt %d", attempt)})
		}
		dispatchSpan := tracer.Start(cellSpan, telemetry.KindDispatch, "dispatch "+wid,
			telemetry.Str("worker", wid),
			telemetry.Num("attempt", float64(attempt)))
		start := time.Now()
		res, arrived, err := c.assign(ctx, alive, wurl, body)
		c.members.Release(wid, errors.Is(err, errUnreachable))
		if err != nil {
			if ctx.Err() != nil {
				tracer.End(dispatchSpan, telemetry.Bool("cancelled", true))
				return nil, "", ctx.Err()
			}
			c.leasesExpired.Inc()
			avoid = wid
			tracer.End(dispatchSpan, telemetry.Bool("expired", true))
			c.events.Record(ClusterEvent{Kind: EventLeaseExpired, Worker: wid, Job: job, Cell: idx, Detail: err.Error()})
			c.log.Warn("attempt failed, reassigning cell", "job", job, "cell", idx, "worker", wid, "attempt", attempt, "err", err)
			// An attempt that failed at once (unreachable or refusing worker)
			// would otherwise retry in a tight loop; back off briefly, scaled
			// by attempt, before the next grant.
			if time.Since(start) < 100*time.Millisecond {
				backoff := time.Duration(attempt+1) * 25 * time.Millisecond
				if backoff > time.Second {
					backoff = time.Second
				}
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
					return nil, "", ctx.Err()
				}
			}
			continue
		}
		// Credit the worker and record the commit before the result reaches
		// the pool: the cell may be the job's last, and a finished job must
		// already show every committed cell in the cluster counters and event
		// log.
		c.members.Committed(wid)
		c.events.Record(ClusterEvent{Kind: EventCellCommitted, Worker: wid, Job: job, Cell: idx})
		c.dispatchSeconds.Observe(arrived.Sub(start).Seconds())
		if res.ExecUS > 0 {
			c.execSeconds.Observe(float64(res.ExecUS) / 1e6)
		}
		if spans := c.resultSpans(wid, job, idx, res.SpanBatch); len(spans) > 0 {
			n := tracer.Import(dispatchSpan, spans,
				telemetry.Str("node", wid),
				telemetry.Num("clock_offset_us", float64(c.members.ClockOffsetUS(wid))))
			c.spansImported.Add(int64(n))
		}
		if res.Err != "" {
			tracer.End(dispatchSpan, telemetry.Str("error", res.Err))
			return nil, wid, errors.New(res.Err)
		}
		row, err := campaign.DecodeCellRow(spec.Experiment, res.Row)
		// The commit phase opens when the response headers arrived, so it
		// covers reading and decoding the body as well.
		commitUS := time.Since(arrived).Microseconds()
		c.commitSeconds.Observe(float64(commitUS) / 1e6)
		tracer.End(dispatchSpan)
		tracer.Record(cellSpan, telemetry.KindPhase, "commit",
			arrived.UnixMicro(), commitUS, telemetry.Str("worker", wid))
		if err != nil {
			return nil, wid, fmt.Errorf("cluster: worker %s returned undecodable row for %s/%d: %w", wid, job, idx, err)
		}
		return row, wid, nil
	}
}

// errUnreachable marks an attempt that failed before any response arrived
// for a reason other than its own deadline or cancellation.
var errUnreachable = errors.New("worker unreachable")

// assign runs one attempt: it posts the assignment and reads the cell's
// result from the response, returning when the response headers arrived.
// The attempt is bounded by the lease TTL and cancelled when alive ends (the
// worker was swept dead or re-registered). Anything but a 200 whose body
// decodes within durable.MaxPayload bytes is an error; a transport error
// before the response headers (dial refused, reset, EOF) wraps
// errUnreachable.
func (c *Coordinator) assign(ctx, alive context.Context, url string, body []byte) (AssignResponse, time.Time, error) {
	var res AssignResponse
	ctx, cancel := context.WithTimeout(ctx, c.cfg.LeaseTTL)
	defer cancel()
	defer context.AfterFunc(alive, cancel)()
	c.attempts.Add(1)
	defer c.attempts.Add(-1)
	resp, err := postJSON(ctx, c.client, c.cfg.Secret, url+"/cluster/v2/assign", body)
	if err != nil {
		if ctx.Err() == nil {
			err = fmt.Errorf("%w: %w", errUnreachable, err)
		}
		return res, time.Time{}, err
	}
	defer resp.Body.Close()
	arrived := time.Now()
	if resp.StatusCode != http.StatusOK {
		return res, arrived, fmt.Errorf("worker answered %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, durable.MaxPayload+1))
	if err != nil {
		return res, arrived, fmt.Errorf("read result: %w", err)
	}
	if len(data) > durable.MaxPayload {
		return res, arrived, fmt.Errorf("result past %d bytes", durable.MaxPayload)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, arrived, fmt.Errorf("bad result: %w", err)
	}
	return res, arrived, nil
}

// warmPayload resolves a spec's warm_start checkpoint to its raw payload, so
// workers (which have no checkpoint store) receive the agent state inline.
func (c *Coordinator) warmPayload(spec service.Spec) (json.RawMessage, error) {
	if spec.WarmStart == "" {
		return nil, nil
	}
	cs := c.pool.Checkpoints()
	if cs == nil {
		return nil, fmt.Errorf("cluster: warm_start %q: coordinator is running without a data directory", spec.WarmStart)
	}
	payload, _, err := cs.Get(spec.WarmStart)
	if err != nil {
		return nil, fmt.Errorf("cluster: warm_start: %w", err)
	}
	return payload, nil
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req, "register request", durable.MaxPayload) {
		return
	}
	if err := c.members.Register(req.ID, req.URL, req.Capacity); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.events.Record(ClusterEvent{Kind: EventWorkerRegistered, Worker: req.ID,
		Detail: fmt.Sprintf("capacity %d", req.Capacity)})
	c.log.Info("worker registered", "worker", req.ID, "url", req.URL, "capacity", req.Capacity)
	httpJSON(w, http.StatusOK, RegisterResponse{HeartbeatEveryMs: c.cfg.HeartbeatEvery.Milliseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req, "heartbeat", durable.MaxPayload) {
		return
	}
	switch err := c.members.Heartbeat(req.ID, req.ClockOffsetUS, req.Metrics); {
	case errors.Is(err, errUnknownWorker):
		httpError(w, http.StatusNotFound, "unknown worker %q (re-register)", req.ID)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "heartbeat refused: %v", err)
		return
	}
	// The worker estimates its clock offset from NowUS against the round
	// trip's midpoint.
	httpJSON(w, http.StatusOK, HeartbeatResponse{NowUS: time.Now().UnixMicro()})
}

// resultSpans decodes a result's span batch. A batch that does not decode is
// logged and dropped rather than failing the attempt: the row is good, and
// reassigning the cell would only run it again.
func (c *Coordinator) resultSpans(wid, job string, cell int, batch []byte) []telemetry.Span {
	if len(batch) == 0 {
		return nil
	}
	spans, err := telemetry.DecodeSpanBatch(batch)
	if err != nil {
		c.log.Warn("span batch dropped", "worker", wid, "job", job, "cell", cell, "err", err)
	}
	return spans
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	httpJSON(w, http.StatusOK, WorkersResponse{Workers: c.members.Snapshot()})
}

// decodeBody decodes r's JSON body into v, read through service.ReadBody
// like the public submit routes (413 past limit bytes, 400 for a body that
// ends early), answering 400 for malformed JSON. It reports whether v was
// decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string, limit int64) bool {
	body, ok := service.ReadBody(w, r, what, limit)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		httpError(w, http.StatusBadRequest, "bad %s: %v", what, err)
		return false
	}
	return true
}

// httpJSON emits v with the given status.
func httpJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // headers are out; nothing left to do
}

// httpError emits a JSON error envelope.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	httpJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
