package cluster

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"net/http"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// Wire types for the coordinator ⇄ worker HTTP protocol: JSON bodies, except
// that a completion carries its span batch as one binary field (spanwire.go),
// which JSON sends as base64. Durations cross the wire as integer
// milliseconds so the payloads stay readable in curl and logs. The
// coordinator reads at most durable.MaxPayload bytes of a request body and
// answers 413 past it.
//
// Coordinator routes (mounted under /cluster/v1/ on the public listener):
//
//	POST /cluster/v1/register   RegisterRequest  → RegisterResponse
//	POST /cluster/v1/heartbeat  HeartbeatRequest → 200 HeartbeatResponse (404 = re-register)
//	POST /cluster/v1/complete   CompleteRequest  → CompleteResponse
//	GET  /cluster/v1/workers    WorkersResponse (operator visibility)
//
// Worker routes:
//
//	POST /cluster/v1/assign     AssignRequest → 202 (429 full, 503 stopping)
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text exposition

// RegisterRequest announces a worker to the coordinator. Re-registering an
// existing id (worker restart, coordinator restart) replaces the previous
// entry.
type RegisterRequest struct {
	// ID uniquely names the worker across the cluster.
	ID string `json:"id"`
	// URL is the worker's advertised base URL, reachable from the
	// coordinator (e.g. http://10.0.0.7:8081).
	URL string `json:"url"`
	// Capacity is the worker's maximum concurrent cell count.
	Capacity int `json:"capacity"`
}

// RegisterResponse hands the worker its operating parameters.
type RegisterResponse struct {
	// HeartbeatEveryMs is the heartbeat period the coordinator expects.
	HeartbeatEveryMs int64 `json:"heartbeat_every_ms"`
	// ExpireAfterMs is how long the coordinator tolerates silence before
	// declaring the worker dead.
	ExpireAfterMs int64 `json:"expire_after_ms"`
	// LeaseTTLMs bounds each assignment; informational for the worker.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
}

// HeartbeatRequest keeps a registration alive and reports load. Beyond
// liveness it is the cluster's telemetry bus: each beat carries a snapshot of
// the worker's metrics registry (federated into the coordinator's /metrics
// with a worker label) and the worker's current clock-offset estimate. All
// additions are optional, so a PR 6 worker heartbeating a PR 7 coordinator —
// or the reverse — keeps working, just without federation.
type HeartbeatRequest struct {
	ID string `json:"id"`
	// Inflight is the worker's current concurrent cell count.
	Inflight int `json:"inflight"`
	// ClockOffsetUS is the worker's estimate of (coordinator clock - worker
	// clock) in microseconds, measured from previous heartbeat round trips
	// (offset = coordinator time at response minus the round trip's midpoint).
	// 0 until the first estimate lands.
	ClockOffsetUS int64 `json:"clock_offset_us,omitempty"`
	// Metrics is a snapshot of the worker's metrics registry.
	Metrics []telemetry.SampleFamily `json:"metrics,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. PR 6 answered 204 with no body;
// the body is additive — an old worker ignores it, a new worker uses NowUS to
// estimate its clock offset against the coordinator.
type HeartbeatResponse struct {
	// NowUS is the coordinator's wall clock (microseconds since the Unix
	// epoch) when the heartbeat was handled.
	NowUS int64 `json:"now_us"`
}

// TraceContext propagates the coordinator's span context across the dispatch
// boundary: the worker roots its exec span under (conceptually) ParentSpan of
// trace Trace, so the span batch it ships back merges into the coordinator's
// timeline as children of the dispatching cell span.
type TraceContext struct {
	// Trace identifies the coordinator-side trace (the job ID — one tracer
	// per job in the job store).
	Trace string `json:"trace"`
	// ParentSpan is the coordinator-side span the remote execution belongs
	// to (the cell's dispatch span).
	ParentSpan telemetry.SpanID `json:"parent_span"`
}

// AssignRequest leases one cell of a job to a worker. The worker replans the
// spec deterministically and runs cell index Cell; it does not need the
// coordinator's journal or store.
type AssignRequest struct {
	Job string `json:"job"`
	// Cell indexes the campaign's cell plan.
	Cell int `json:"cell"`
	// LeaseID must be echoed in the completion; a stale id identifies a
	// result whose lease already expired and was reassigned.
	LeaseID uint64 `json:"lease_id"`
	// Spec is the job's submitted spec (experiment, fidelity, seed).
	Spec service.Spec `json:"spec"`
	// WarmAgent, when set, is the resolved warm-start checkpoint payload
	// (saved rl.Agent state); the worker adopts it instead of resolving the
	// checkpoint name against a store it does not have.
	WarmAgent json.RawMessage `json:"warm_agent,omitempty"`
	// Trace, when set, asks the worker to trace the execution and ship the
	// span batch back on the completion. Optional: a PR 6 worker ignores it.
	Trace *TraceContext `json:"trace,omitempty"`
}

// CompleteRequest streams one cell result back to the coordinator. Exactly
// one of Row and Err is meaningful — unless Flush is set, in which case the
// request carries no result at all, only a span batch salvaged from a cell
// whose execution was cut (worker drain, lease expiry).
type CompleteRequest struct {
	Worker  string          `json:"worker"`
	Job     string          `json:"job"`
	Cell    int             `json:"cell"`
	LeaseID uint64          `json:"lease_id"`
	Row     json.RawMessage `json:"row,omitempty"`
	Err     string          `json:"err,omitempty"`
	// SpanBatch is the worker-side span batch for this cell, encoded by
	// encodeSpanBatch (timestamps already shifted into the coordinator's
	// clock by the worker's offset estimate). A batch the coordinator
	// cannot decode is logged and dropped; the result still commits.
	SpanBatch []byte `json:"span_batch,omitempty"`
	// ExecUS is the worker-side wall time of the cell execution in
	// microseconds, for the coordinator's exec-latency histogram.
	ExecUS int64 `json:"exec_us,omitempty"`
	// Flush marks a span-only completion: the lease result is not settled
	// (the cell was cut mid-flight), but the partial trace should still reach
	// the coordinator's archive.
	Flush bool `json:"flush,omitempty"`
}

// CompleteResponse acknowledges a completion. Duplicate is set when the
// lease had already expired or been satisfied — the worker's result was
// dropped idempotently, which is not an error.
type CompleteResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
}

// WorkerStatus is one row of the coordinator's worker listing.
type WorkerStatus struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Capacity int    `json:"capacity"`
	Inflight int    `json:"inflight"`
	// Assigned is the lifetime count of cells leased to this worker.
	Assigned int64 `json:"assigned"`
	// Completed is the lifetime count of cells this worker finished
	// (committed a result for, successfully or not).
	Completed int64 `json:"completed"`
	// LastBeatMs is milliseconds since the last heartbeat (or
	// registration).
	LastBeatMs int64 `json:"last_beat_ms"`
	// ClockOffsetUS is the worker's last reported clock-offset estimate
	// (coordinator clock - worker clock), microseconds.
	ClockOffsetUS int64 `json:"clock_offset_us,omitempty"`
}

// WorkersResponse lists the live membership.
type WorkersResponse struct {
	Workers []WorkerStatus `json:"workers"`
}

// checkSecret reports whether r carries the cluster shared secret as a
// bearer token. An empty secret disables the check (single-host and test
// clusters).
func checkSecret(r *http.Request, secret string) bool {
	if secret == "" {
		return true
	}
	got := []byte(r.Header.Get("Authorization"))
	want := []byte("Bearer " + secret)
	return subtle.ConstantTimeCompare(got, want) == 1
}

// requireSecret wraps h to demand the cluster shared secret on every
// request; an empty secret returns h unchanged.
func requireSecret(secret string, h http.Handler) http.Handler {
	if secret == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !checkSecret(r, secret) {
			httpError(w, http.StatusUnauthorized, "cluster secret required")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// postJSON posts body to url with the cluster secret attached when one is
// configured — the single send path for all intra-cluster requests.
func postJSON(client *http.Client, secret, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if secret != "" {
		req.Header.Set("Authorization", "Bearer "+secret)
	}
	return client.Do(req)
}
