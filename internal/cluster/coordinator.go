package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Coordinator is the cluster's control plane. It owns the membership, the
// lease table and the cluster HTTP endpoints, and plugs into the service
// pool as its CellRunner: the pool keeps doing submission, journaling,
// recovery and aggregation exactly as in standalone mode, while every cell
// execution is leased out to a registered worker instead of running
// in-process.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	pool    *service.Pool
	members *Membership
	leases  *Leases
	events  *ClusterRecorder
	mux     *http.ServeMux
	status  *http.ServeMux
	log     *slog.Logger

	// sweeper lifecycle.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	leasesGranted    *telemetry.Counter
	leasesReassigned *telemetry.Counter
	leasesExpired    *telemetry.Counter
	duplicateResults *telemetry.Counter
	workersDead      *telemetry.Counter
	spansImported    *telemetry.Counter
	spanFlushes      *telemetry.Counter
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
	c := &Coordinator{
		cfg:     cfg,
		client:  &http.Client{Timeout: assignTimeout},
		pool:    pool,
		members: NewMembership(),
		leases:  NewLeases(),
		events:  NewClusterRecorder(cfg.FlightDir, DefaultStormWindow, DefaultStormReassigns, DefaultStormDeaths, pool.Registry()),
		mux:     http.NewServeMux(),
		status:  http.NewServeMux(),
		log:     telemetry.Component("coordinator"),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	reg := pool.Registry()
	c.leasesGranted = reg.Counter("thermserved_cluster_leases_granted_total", "Cell leases granted to workers.")
	c.leasesReassigned = reg.Counter("thermserved_cluster_leases_reassigned_total", "Cells reassigned after a lease expired or a worker died.")
	c.leasesExpired = reg.Counter("thermserved_cluster_leases_expired_total", "Leases that expired before their result arrived.")
	c.duplicateResults = reg.Counter("thermserved_cluster_duplicate_results_total", "Worker completions dropped idempotently (stale lease).")
	c.workersDead = reg.Counter("thermserved_cluster_workers_dead_total", "Workers declared dead after missing heartbeats.")
	c.spansImported = reg.Counter("thermserved_cluster_spans_imported_total", "Worker-side spans merged into coordinator job traces.")
	c.spanFlushes = reg.Counter("thermserved_cluster_span_flushes_total", "Span-only completions (drained cells) merged into job traces.")
	c.dispatchSeconds = reg.Histogram("thermserved_cluster_dispatch_seconds",
		"Latency from lease grant to the cell result arriving at the coordinator.", telemetry.DefBuckets)
	c.execSeconds = reg.Histogram("thermserved_cluster_exec_seconds",
		"Worker-side cell execution wall time, as reported on completions.", telemetry.DefBuckets)
	c.commitSeconds = reg.Histogram("thermserved_cluster_commit_seconds",
		"Coordinator-side commit latency: result arrival to row decoded and returned to the pool.", telemetry.DefBuckets)
	reg.GaugeFunc("thermserved_cluster_workers_alive", "Workers currently registered and heartbeating.",
		func() float64 { return float64(c.members.Alive()) })
	reg.GaugeFunc("thermserved_cluster_leases_active", "Cell leases currently outstanding.",
		func() float64 { return float64(c.leases.Active()) })
	reg.GaugeFunc("thermserved_cluster_shard_imbalance",
		"Max over mean lifetime cell assignments across live workers (1.0 = balanced, 0 = fewer than two loaded workers).",
		func() float64 { return c.members.Imbalance() })
	reg.GaugeFunc("thermserved_cluster_lease_churn_per_min",
		"Lease reassignments within the trailing minute.",
		func() float64 { return float64(c.events.RecentReassigns(time.Minute)) })

	c.mux.HandleFunc("POST /cluster/v1/register", c.handleRegister)
	c.mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /cluster/v1/complete", c.handleComplete)
	c.mux.HandleFunc("GET /cluster/v1/workers", c.handleWorkers)
	c.status.HandleFunc("GET /v1/cluster/status", c.handleStatus)
	c.status.HandleFunc("GET /v1/cluster/live", c.handleLiveStatus)

	pool.SetCellRunner(c.RunCell)
	return c
}

// Membership exposes the worker registry (tests and the workers endpoint).
func (c *Coordinator) Membership() *Membership { return c.members }

// Leases exposes the lease table (tests).
func (c *Coordinator) Leases() *Leases { return c.leases }

// Handler serves the /cluster/v1/* routes; mount it on the same listener as
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
					n := c.leases.ExpireWorker(id)
					c.workersDead.Inc()
					c.events.Record(ClusterEvent{Kind: EventWorkerDead, Worker: id,
						Detail: fmt.Sprintf("%d leases reassigned", n)})
					c.log.Warn("worker dead (missed heartbeats)", "worker", id, "leases_reassigned", n)
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

// RunCell is the pool's CellRunner in cluster mode: lease the cell to the
// live worker with the most free capacity, wait for the result to stream
// back, and reassign on expiry — to another worker when one has a free slot
// — forever, until the job's context is cut.
// Only cells without a journaled outcome ever reach this point (the pool
// re-feeds exactly the uncommitted cells, live or after a restart), so
// reassignment can never double-commit a cell.
func (c *Coordinator) RunCell(ctx context.Context, job string, spec service.Spec, idx int, cell experiments.Cell) (any, string, error) {
	key := leaseKey(job, idx)
	warm, err := c.warmPayload(spec)
	if err != nil {
		return nil, "", err
	}
	// The pool's runTask installs the job tracer and the cell span on the
	// dispatch context; every tracer method is nil-safe, so standalone tests
	// that call RunCell without one need no branches here.
	tracer, cellSpan := telemetry.SpanFromContext(ctx)
	avoid := ""
	for attempt := 0; ; attempt++ {
		wid, wurl, err := c.members.Acquire(ctx, avoid)
		if err != nil {
			return nil, "", err
		}
		lease := c.leases.Grant(job, idx, wid, c.cfg.LeaseTTL)
		c.leasesGranted.Inc()
		c.events.Record(ClusterEvent{Kind: EventLeaseGranted, Worker: wid, Job: job, Cell: idx,
			Detail: fmt.Sprintf("lease %d", lease.ID)})
		if attempt > 0 {
			c.leasesReassigned.Inc()
			c.events.Record(ClusterEvent{Kind: EventLeaseReassigned, Worker: wid, Job: job, Cell: idx,
				Detail: fmt.Sprintf("attempt %d", attempt)})
		}
		dispatchSpan := tracer.Start(cellSpan, telemetry.KindDispatch, "dispatch "+wid,
			telemetry.Str("worker", wid),
			telemetry.Num("attempt", float64(attempt)),
			telemetry.Num("lease_id", float64(lease.ID)))
		var tc *TraceContext
		if tracer != nil {
			tc = &TraceContext{Trace: job, ParentSpan: dispatchSpan}
		}
		start := time.Now()
		go c.deliverAssign(wid, wurl, lease, AssignRequest{
			Job: job, Cell: idx, LeaseID: lease.ID, Spec: spec, WarmAgent: warm, Trace: tc,
		})
		select {
		case res := <-lease.Done():
			c.members.Release(wid)
			c.dispatchSeconds.Observe(time.Since(start).Seconds())
			if res.ExecUS > 0 {
				c.execSeconds.Observe(float64(res.ExecUS) / 1e6)
			}
			if len(res.Spans) > 0 {
				n := tracer.Import(dispatchSpan, res.Spans,
					telemetry.Str("node", wid),
					telemetry.Num("clock_offset_us", float64(c.members.ClockOffsetUS(wid))))
				c.spansImported.Add(int64(n))
			}
			// The commit phase opens when the completion reached
			// handleComplete, so it covers the body's decode as well.
			commitStart := res.Arrived
			if res.Err != "" {
				tracer.End(dispatchSpan, telemetry.Str("error", res.Err))
				return nil, wid, errors.New(res.Err)
			}
			row, err := campaign.DecodeCellRow(spec.Experiment, res.Row)
			commitUS := time.Since(commitStart).Microseconds()
			c.commitSeconds.Observe(float64(commitUS) / 1e6)
			tracer.End(dispatchSpan)
			tracer.Record(cellSpan, telemetry.KindPhase, "commit",
				commitStart.UnixMicro(), commitUS, telemetry.Str("worker", wid))
			if err != nil {
				return nil, wid, fmt.Errorf("cluster: worker %s returned undecodable row for %s: %w", wid, key, err)
			}
			return row, wid, nil
		case <-lease.Expired():
			c.leasesExpired.Inc()
			c.members.Release(wid)
			avoid = wid
			tracer.End(dispatchSpan, telemetry.Bool("expired", true))
			c.events.Record(ClusterEvent{Kind: EventLeaseExpired, Worker: wid, Job: job, Cell: idx,
				Detail: fmt.Sprintf("lease %d", lease.ID)})
			c.log.Warn("lease expired, reassigning cell", "job", job, "cell", idx, "worker", wid, "attempt", attempt)
			// A lease that died instantly (unreachable worker) would
			// otherwise retry in a tight loop; back off briefly, scaled by
			// attempt, before the next grant.
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
		case <-ctx.Done():
			c.leases.Cancel(lease)
			c.members.Release(wid)
			tracer.End(dispatchSpan, telemetry.Bool("cancelled", true))
			return nil, "", ctx.Err()
		}
	}
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

// deliverAssign posts the assignment to the worker. Any failure to deliver
// (connection refused, non-202) force-expires the lease so the dispatcher
// reassigns immediately instead of waiting out the TTL.
func (c *Coordinator) deliverAssign(wid, wurl string, lease *Lease, req AssignRequest) {
	body, err := json.Marshal(req)
	if err != nil {
		c.log.Error("assignment not marshalable", "job", req.Job, "cell", req.Cell, "err", err)
		c.leases.Expire(lease)
		return
	}
	resp, err := postJSON(c.client, c.cfg.Secret, wurl+"/cluster/v1/assign", body)
	if err != nil {
		c.log.Warn("assignment undeliverable", "worker", wid, "job", req.Job, "cell", req.Cell, "err", err)
		c.leases.Expire(lease)
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	if resp.StatusCode != http.StatusAccepted {
		c.log.Warn("assignment refused", "worker", wid, "job", req.Job, "cell", req.Cell, "status", resp.StatusCode)
		c.leases.Expire(lease)
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req, "register request") {
		return
	}
	replaced, err := c.members.Register(req.ID, req.URL, req.Capacity)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if replaced {
		// A re-registration means the previous incarnation's in-memory
		// assignments are gone, but its leases may still be outstanding —
		// and Register just reset the inflight count to zero, so leaving
		// them active would oversubscribe the worker until they time out.
		// Expire them now: the cells reassign immediately and each expiry's
		// Release lands on the fresh (zero) count it belongs to.
		if n := c.leases.ExpireWorker(req.ID); n > 0 {
			c.leasesExpired.Add(int64(n))
			c.log.Warn("worker re-registered with leases outstanding; reassigning",
				"worker", req.ID, "leases", n)
		}
	}
	c.events.Record(ClusterEvent{Kind: EventWorkerRegistered, Worker: req.ID,
		Detail: fmt.Sprintf("capacity %d", req.Capacity)})
	c.log.Info("worker registered", "worker", req.ID, "url", req.URL, "capacity", req.Capacity)
	httpJSON(w, http.StatusOK, RegisterResponse{
		HeartbeatEveryMs: c.cfg.HeartbeatEvery.Milliseconds(),
		ExpireAfterMs:    c.cfg.expireAfter().Milliseconds(),
		LeaseTTLMs:       c.cfg.LeaseTTL.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req, "heartbeat") {
		return
	}
	if !c.members.Heartbeat(req.ID, req.Inflight, req.ClockOffsetUS, req.Metrics) {
		httpError(w, http.StatusNotFound, "unknown worker %q (re-register)", req.ID)
		return
	}
	// 200 + timestamp (PR 6 answered a bare 204): the worker estimates its
	// clock offset from NowUS against the round trip's midpoint.
	httpJSON(w, http.StatusOK, HeartbeatResponse{NowUS: time.Now().UnixMicro()})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	var req CompleteRequest
	if !decodeBody(w, r, &req, "completion") {
		return
	}
	spans := c.completionSpans(&req)
	if req.Flush {
		// Span-only salvage from a drained or expired cell: nothing to
		// settle on the lease table, but the partial trace still belongs in
		// the job's archive. The dispatch span it hung under is gone, so the
		// batch roots at the top of the job trace, tagged with its origin.
		if tr, ok := c.pool.JobTracer(req.Job); ok && len(spans) > 0 {
			n := tr.Import(0, spans,
				telemetry.Str("node", req.Worker),
				telemetry.Bool("flushed", true))
			c.spansImported.Add(int64(n))
			c.spanFlushes.Inc()
		}
		c.events.Record(ClusterEvent{Kind: EventSpanFlush, Worker: req.Worker, Job: req.Job, Cell: req.Cell,
			Detail: fmt.Sprintf("%d spans", len(spans))})
		httpJSON(w, http.StatusOK, CompleteResponse{})
		return
	}
	// Credit the worker and record the commit before the result reaches the
	// pool: the cell may be the job's last, and a finished job must already
	// show every committed cell in the cluster counters and event log.
	ok := c.leases.Complete(req.Job, req.Cell, req.LeaseID, req.Worker,
		Result{Row: req.Row, Err: req.Err, Spans: spans, ExecUS: req.ExecUS, Arrived: arrived},
		func() {
			c.members.Committed(req.Worker)
			c.events.Record(ClusterEvent{Kind: EventCellCommitted, Worker: req.Worker, Job: req.Job, Cell: req.Cell})
		})
	if !ok {
		// Stale or double delivery: drop the result idempotently. 200 (not
		// an error) so the worker does not retry. The span batch is still
		// merged — the expired attempt's work belongs in the trace even
		// though its result lost the race to a reassignment.
		if tr, tok := c.pool.JobTracer(req.Job); tok && len(spans) > 0 {
			n := tr.Import(0, spans,
				telemetry.Str("node", req.Worker),
				telemetry.Bool("stale", true))
			c.spansImported.Add(int64(n))
		}
		c.duplicateResults.Inc()
		c.log.Info("stale completion dropped", "worker", req.Worker, "job", req.Job, "cell", req.Cell, "lease", req.LeaseID)
	}
	httpJSON(w, http.StatusOK, CompleteResponse{Duplicate: !ok})
}

// completionSpans decodes a completion's span batch. A batch that does not
// decode is logged and dropped rather than refused: the worker counts any
// answer as delivered, so a 400 would leave the cell waiting out its lease.
func (c *Coordinator) completionSpans(req *CompleteRequest) []telemetry.Span {
	if len(req.SpanBatch) == 0 {
		return nil
	}
	spans, err := decodeSpanBatch(req.SpanBatch)
	if err != nil {
		c.log.Warn("span batch dropped", "worker", req.Worker, "job", req.Job, "cell", req.Cell, "err", err)
	}
	return spans
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	httpJSON(w, http.StatusOK, WorkersResponse{Workers: c.members.Snapshot()})
}

// decodeBody decodes r's JSON body into v, reading at most
// durable.MaxPayload bytes like the public submit routes. It answers 413 past
// the bound and 400 for a body that ends early or is malformed, and reports
// whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, durable.MaxPayload))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "read %s: %v", what, err)
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
