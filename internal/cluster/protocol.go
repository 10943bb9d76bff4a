package cluster

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"net/http"

	"repro/internal/durable"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Wire types for the coordinator ⇄ worker HTTP protocol: JSON bodies, except
// that a cell's result carries its span batch as one binary field
// (telemetry.EncodeSpanBatch), which JSON sends as base64. Durations cross the wire as
// integer milliseconds or microseconds so the payloads stay readable in curl
// and logs. The coordinator reads at most durable.MaxPayload bytes of a
// request body (413 past it) and of an assignment's response; a worker reads
// at most maxAssignBody bytes of an assignment.
//
// Coordinator routes (mounted under /cluster/v2/ on the public listener):
//
//	POST /cluster/v2/register   RegisterRequest  → RegisterResponse
//	POST /cluster/v2/heartbeat  HeartbeatRequest → 200 HeartbeatResponse (404 = re-register, 400 = metrics refused)
//	GET  /cluster/v2/workers    WorkersResponse (operator visibility)
//
// Worker routes:
//
//	POST /cluster/v2/assign     AssignRequest → 200 AssignResponse when the cell ends (429 full, 503 stopping)
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text exposition
//
// One cell is one exchange: the coordinator posts the assignment and reads
// the cell's result from the response. An attempt that fails in any other way
// (no answer within the lease TTL, the worker swept dead or re-registered, a
// connection error, a refusal, a body that does not decode) is reassigned.

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
}

// HeartbeatRequest keeps a registration alive. Beyond liveness it is the
// cluster's telemetry bus: each beat carries a snapshot of the worker's
// metrics registry (federated into the coordinator's /metrics with a worker
// label) and the worker's current clock-offset estimate.
type HeartbeatRequest struct {
	ID string `json:"id"`
	// ClockOffsetUS is the worker's estimate of (coordinator clock - worker
	// clock) in microseconds, measured from previous heartbeat round trips
	// (offset = coordinator time at response minus the round trip's midpoint).
	// 0 until the first estimate lands.
	ClockOffsetUS int64 `json:"clock_offset_us,omitempty"`
	// Metrics is a snapshot of the worker's metrics registry. The coordinator
	// refuses the whole beat (400) unless every family carries the
	// thermworker_ prefix and the fleet's exposition stays conformant with it.
	Metrics []telemetry.SampleFamily `json:"metrics,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	// NowUS is the coordinator's wall clock (microseconds since the Unix
	// epoch) when the heartbeat was handled.
	NowUS int64 `json:"now_us"`
}

// maxAssignBody bounds an assignment's body: the spec, whose campaign
// document the public routes cap at durable.MaxPayload, a warm payload of up
// to durable.MaxPayload, and the envelope around them.
const maxAssignBody = 2*durable.MaxPayload + 64<<10

// AssignRequest hands one cell of a job to a worker. The worker replans the
// spec deterministically and runs cell index Cell; it does not need the
// coordinator's journal or store.
type AssignRequest struct {
	Job string `json:"job"`
	// Cell indexes the campaign's cell plan.
	Cell int `json:"cell"`
	// Spec is the job's submitted spec (experiment, fidelity, seed).
	Spec service.Spec `json:"spec"`
	// WarmAgent, when set, is the resolved warm-start checkpoint payload
	// (saved rl.Agent state); the worker adopts it instead of resolving the
	// checkpoint name against a store it does not have.
	WarmAgent json.RawMessage `json:"warm_agent,omitempty"`
	// Trace asks the worker to trace the execution and return the span batch
	// with the result; the coordinator merges it under the attempt's
	// dispatch span.
	Trace bool `json:"trace,omitempty"`
}

// AssignResponse is the worker's answer to an assignment, written when the
// cell has run. Exactly one of Row and Err is meaningful; a cell that
// returned an error commits as a failed cell.
type AssignResponse struct {
	Row json.RawMessage `json:"row,omitempty"`
	Err string          `json:"err,omitempty"`
	// SpanBatch is the worker-side span batch for this cell, encoded by
	// telemetry.EncodeSpanBatch (timestamps already shifted into the coordinator's
	// clock by the worker's offset estimate). A batch the coordinator
	// cannot decode is logged and dropped; the result still commits.
	SpanBatch []byte `json:"span_batch,omitempty"`
	// ExecUS is the worker-side wall time of the cell execution in
	// microseconds, for the coordinator's exec-latency histogram.
	ExecUS int64 `json:"exec_us,omitempty"`
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

// postJSON posts body to url under ctx with the cluster secret attached when
// one is configured — the single send path for all intra-cluster requests.
func postJSON(ctx context.Context, client *http.Client, secret, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if secret != "" {
		req.Header.Set("Authorization", "Bearer "+secret)
	}
	return client.Do(req)
}
