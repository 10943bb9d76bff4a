package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

// Server exposes the job subsystem over HTTP:
//
//	POST   /v1/jobs             submit a campaign spec, returns the job
//	POST   /v1/campaigns        submit a tournament document (experiments.json)
//	GET    /v1/jobs             list live jobs
//	GET    /v1/jobs/{id}        status and progress
//	GET    /v1/jobs/{id}/result assembled rows of a finished job
//	GET    /v1/jobs/{id}/leaderboard tournament leaderboard (?format=csv)
//	GET    /v1/jobs/{id}/events RL decision-event trace as JSONL
//	GET    /v1/jobs/{id}/live   live SSE stream of decision epochs
//	GET    /v1/jobs/{id}/trace  span trace (?format=chrome|jsonl)
//	GET    /v1/jobs/{id}/learning learning curves: per-run convergence
//	                              summaries as JSON, full per-epoch curves
//	                              with ?format=jsonl
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/checkpoints        list stored policy checkpoints
//	POST   /v1/checkpoints/{name} store learner state (rl.Agent JSON or a
//	                              tagged policy checkpoint)
//	GET    /v1/checkpoints/{name} fetch the stored learner state
//	DELETE /v1/checkpoints/{name} remove a checkpoint
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text exposition
//
// The checkpoint routes require a data directory (thermserved -data-dir)
// and answer 503 without one. A stored checkpoint's name can be passed as a
// job spec's warm_start; the payload is routed to the policy whose kind
// matches (untagged payloads are the proposed controller's).
//
// Every route is instrumented: request counts by (route, method, code),
// latency histograms per route and an in-flight gauge, all registered in
// the pool's registry. /metrics merges that registry with the process-wide
// default one (simulation and RL metrics).
type Server struct {
	store       *Store
	pool        *Pool
	mux         *http.ServeMux
	reg         *telemetry.Registry
	inFlight    *telemetry.Gauge
	liveStreams *telemetry.Gauge
	// livePoll is the SSE drain interval (defaultLivePoll; tests shorten it).
	livePoll time.Duration
	// appendMetrics hooks extra exposition text onto /metrics (the cluster
	// coordinator appends the fleet's federated worker series).
	appendMetrics []func(io.Writer) error
	log           *slog.Logger
}

// NewServer wires the handlers over one store/pool pair.
func NewServer(store *Store, pool *Pool) *Server {
	s := &Server{
		store:    store,
		pool:     pool,
		mux:      http.NewServeMux(),
		reg:      pool.Registry(),
		livePoll: defaultLivePoll,
		log:      telemetry.Component("server"),
	}
	s.inFlight = s.reg.Gauge("thermserved_http_in_flight", "HTTP requests currently being served.")
	s.liveStreams = s.reg.Gauge("thermserved_live_streams", "Live SSE job streams currently connected.")
	s.handle("POST /v1/jobs", "/v1/jobs", s.handleSubmit)
	s.handle("POST /v1/campaigns", "/v1/campaigns", s.handleCampaignSubmit)
	s.handle("GET /v1/jobs", "/v1/jobs", s.handleList)
	s.handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleGet)
	s.handle("GET /v1/jobs/{id}/result", "/v1/jobs/{id}/result", s.handleResult)
	s.handle("GET /v1/jobs/{id}/leaderboard", "/v1/jobs/{id}/leaderboard", s.handleLeaderboard)
	s.handle("GET /v1/jobs/{id}/events", "/v1/jobs/{id}/events", s.handleEvents)
	s.handle("GET /v1/jobs/{id}/live", "/v1/jobs/{id}/live", s.handleLive)
	s.handle("GET /v1/jobs/{id}/trace", "/v1/jobs/{id}/trace", s.handleTrace)
	s.handle("GET /v1/jobs/{id}/learning", "/v1/jobs/{id}/learning", s.handleLearning)
	s.handle("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", s.handleCancel)
	s.handle("GET /v1/checkpoints", "/v1/checkpoints", s.handleCheckpointList)
	s.handle("POST /v1/checkpoints/{name}", "/v1/checkpoints/{name}", s.handleCheckpointPut)
	s.handle("GET /v1/checkpoints/{name}", "/v1/checkpoints/{name}", s.handleCheckpointGet)
	s.handle("DELETE /v1/checkpoints/{name}", "/v1/checkpoints/{name}", s.handleCheckpointDelete)
	s.handle("GET /healthz", "/healthz", s.handleHealthz)
	metrics := telemetry.Handler(s.reg, telemetry.Default())
	s.handle("GET /metrics", "/metrics", func(w http.ResponseWriter, r *http.Request) {
		metrics.ServeHTTP(w, r)
		for _, fn := range s.appendMetrics {
			if err := fn(w); err != nil {
				return
			}
		}
	})
	return s
}

// AppendMetrics registers fn to append extra Prometheus text after the
// server's own /metrics exposition — the cluster coordinator uses it to
// publish the fleet's federated, per-worker-labeled series from one scrape
// endpoint. Call before serving traffic; fn must emit complete families whose
// names do not collide with the local registries.
func (s *Server) AppendMetrics(fn func(io.Writer) error) {
	s.appendMetrics = append(s.appendMetrics, fn)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handle registers pattern with request instrumentation. route is the
// pattern's path with placeholders kept literal ({id}), bounding the label
// cardinality.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start).Seconds()
		s.reg.Counter("thermserved_http_requests_total", "HTTP requests by route, method and status code.",
			telemetry.L("route", route), telemetry.L("method", r.Method), telemetry.L("code", strconv.Itoa(sw.code))).Inc()
		s.reg.Histogram("thermserved_http_request_seconds", "HTTP request latency by route.",
			telemetry.DefBuckets, telemetry.L("route", route)).Observe(elapsed)
		s.log.Debug("request", "method", r.Method, "route", route, "code", sw.code, "seconds", elapsed)
	})
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer, so streaming handlers (the SSE live
// stream) can push partial responses through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing left to do
}

// writeError emits a JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ReadBody reads r's body, at most limit bytes of it; the public routes pass
// durable.MaxPayload. On a read error it answers with the JSON error envelope
// and returns false: 413 past the bound, 400 for any other error (a client
// that hung up mid-body). A body whose Content-Length already exceeds the
// bound is refused before any of it is read. Every route that takes a body
// reads it here, the cluster's included.
func ReadBody(w http.ResponseWriter, r *http.Request, what string, limit int64) ([]byte, bool) {
	if r.ContentLength > limit {
		writeError(w, http.StatusRequestEntityTooLarge, "read %s: %v", what, &http.MaxBytesError{Limit: limit})
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "read %s: %v", what, err)
		return nil, false
	}
	return body, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r, "spec", durable.MaxPayload)
	if !ok {
		return
	}
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	s.submit(w, spec)
}

// handleCampaignSubmit submits a tournament: the request body is the
// declarative experiments.json document itself, wrapped into a job spec under
// the reserved tournament experiment. The document's warm_start field (if
// any) is carried onto the job spec so the pool resolves it like any other
// warm start.
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r, "campaign document", durable.MaxPayload)
	if !ok {
		return
	}
	cs, err := campaign.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submit(w, Spec{
		Experiment: campaign.Experiment,
		Campaign:   json.RawMessage(body),
		WarmStart:  cs.WarmStart,
	})
}

// submit runs a spec through the pool and maps the outcome onto the wire.
func (s *Server) submit(w http.ResponseWriter, spec Spec) {
	job, err := s.pool.Submit(spec)
	if err != nil {
		// Admission-control rejections are backpressure, not client errors:
		// 429 plus a Retry-After hint, so open-loop submitters can pace
		// themselves against the queue instead of piling onto it.
		var over *OverloadedError
		if errors.As(err, &over) {
			w.Header().Set("Retry-After", strconv.Itoa(int((over.RetryAfter+time.Second-1)/time.Second)))
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.store.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	if !job.State.Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", id, job.State)
		return
	}
	rows, _ := s.store.Rows(id)
	if rows == nil {
		writeError(w, http.StatusConflict, "job %s is %s with no rows", id, job.State)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         job.ID,
		"experiment": job.Spec.Experiment,
		"state":      job.State,
		"error":      job.Error,
		"rows":       rows,
	})
}

// handleLeaderboard serves a finished tournament's per-policy ranking:
// JSON with the aggregated entries plus the underlying rows, or the
// deterministic CSV surface with ?format=csv (byte-identical for identical
// specs, wherever the tournament ran).
func (s *Server) handleLeaderboard(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	if job.Spec.Experiment != campaign.Experiment {
		writeError(w, http.StatusBadRequest, "job %s is a %q run, not a tournament", id, job.Spec.Experiment)
		return
	}
	if !job.State.Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; leaderboard not ready", id, job.State)
		return
	}
	rowsAny, _ := s.store.Rows(id)
	rows, ok := rowsAny.([]campaign.Row)
	if !ok {
		writeError(w, http.StatusConflict, "job %s is %s with no tournament rows", id, job.State)
		return
	}
	entries := campaign.Leaderboard(rows)
	switch r.URL.Query().Get("format") {
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_ = campaign.WriteCSV(w, entries) //nolint:errcheck // client gone; nothing left to do
		return
	case "", "json":
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want csv or json)", r.URL.Query().Get("format"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":          job.ID,
		"state":       job.State,
		"error":       job.Error,
		"leaderboard": entries,
		"rows":        rows,
	})
}

// handleEvents serves the job's RL decision trace as JSONL (one event per
// line), read off the epoch spans of the trace /trace exports: live while
// the job runs, from the archive for a job restored after a restart. Jobs
// whose cells run no RL controller produce an empty body.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	spans, ok := s.jobSpans(w, r.PathValue("id"))
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = telemetry.WriteEventsJSONL(w, telemetry.DecisionEvents(spans)) //nolint:errcheck // client gone; nothing left to do
}

// handleLearning serves a job's sampled learning curves. The default JSON
// body carries each sampled run's coordinates and convergence summary; the
// full per-epoch curves stream as JSONL (one rl.RunCurve per line) with
// ?format=jsonl. Live jobs serve from the in-memory curve set; a job
// restored from the journal after a restart falls back to the durable
// archive (-data-dir), the same split as the trace endpoint. Evicting a job
// deletes its archive. Jobs whose cells run no learner report zero runs.
func (s *Server) handleLearning(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "jsonl" {
		writeError(w, http.StatusBadRequest, "unknown learning format %q (want json or jsonl)", format)
		return
	}
	curves, ok := s.store.Learning(id)
	if !ok || curves == nil {
		if curves, ok = archived(w, s.pool.learning, id, "learning curves"); !ok {
			return
		}
	}
	if format == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = curves.WriteJSONL(w) //nolint:errcheck // client gone; nothing left to do
		return
	}
	runs := curves.Curves()
	type runSummary struct {
		Policy   string          `json:"policy"`
		Workload string          `json:"workload"`
		Seed     int64           `json:"seed,omitempty"`
		Repeat   int             `json:"repeat,omitempty"`
		Summary  rl.CurveSummary `json:"summary"`
	}
	summaries := make([]runSummary, len(runs))
	for i, rc := range runs {
		summaries[i] = runSummary{
			Policy: rc.Policy, Workload: rc.Workload,
			Seed: rc.Seed, Repeat: rc.Repeat, Summary: rc.Summary,
		}
	}
	state := "archived"
	if job, live := s.store.Get(id); live {
		state = string(job.State)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":    id,
		"state": state,
		"runs":  summaries,
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.store.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// checkpoints fetches the pool's checkpoint store, answering 503 when the
// server runs without a data directory.
func (s *Server) checkpoints(w http.ResponseWriter) *durable.CheckpointStore {
	cs := s.pool.Checkpoints()
	if cs == nil {
		writeError(w, http.StatusServiceUnavailable, "checkpoints require a data directory (run thermserved with -data-dir)")
	}
	return cs
}

func (s *Server) handleCheckpointList(w http.ResponseWriter, _ *http.Request) {
	cs := s.checkpoints(w)
	if cs == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"checkpoints": cs.List()})
}

// handleCheckpointPut stores the request body — learner state as written by
// any registered policy's checkpointer (rl.Agent JSON, a tagged ReLeTA save,
// a distilled decision table) — under the path's name. The payload is decoded
// before storing, so a corrupt or truncated upload is rejected instead of
// poisoning later warm starts.
func (s *Server) handleCheckpointPut(w http.ResponseWriter, r *http.Request) {
	cs := s.checkpoints(w)
	if cs == nil {
		return
	}
	payload, ok := ReadBody(w, r, "checkpoint payload", durable.MaxPayload)
	if !ok {
		return
	}
	if _, err := policy.DecodeCheckpoint(payload); err != nil {
		writeError(w, http.StatusBadRequest, "not valid learner state: %v", err)
		return
	}
	info, err := cs.Put(r.PathValue("name"), payload)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleCheckpointGet(w http.ResponseWriter, r *http.Request) {
	cs := s.checkpoints(w)
	if cs == nil {
		return
	}
	payload, _, err := cs.Get(r.PathValue("name"))
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, durable.ErrNoCheckpoint) {
			code = http.StatusNotFound
		}
		writeError(w, code, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload) //nolint:errcheck // client gone; nothing left to do
}

func (s *Server) handleCheckpointDelete(w http.ResponseWriter, r *http.Request) {
	cs := s.checkpoints(w)
	if cs == nil {
		return
	}
	if err := cs.Delete(r.PathValue("name")); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, durable.ErrNoCheckpoint) {
			code = http.StatusNotFound
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("name")})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
