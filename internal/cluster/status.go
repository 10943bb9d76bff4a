package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// ClusterStatus is the /v1/cluster/status document: one self-contained
// snapshot of the cluster's health for dashboards and operators. The same
// document is re-emitted periodically on the /v1/cluster/live SSE stream.
type ClusterStatus struct {
	// Workers lists the live membership (id order), including per-worker
	// inflight, lifetime assigned/completed counts and clock offsets.
	Workers []WorkerStatus `json:"workers"`
	// Alive is the membership size; LeasesActive counts cell attempts in
	// flight.
	Alive        int `json:"alive"`
	LeasesActive int `json:"leases_active"`
	// ShardImbalance is max-over-mean lifetime assignments (see the
	// thermserved_cluster_shard_imbalance gauge).
	ShardImbalance float64 `json:"shard_imbalance"`
	// ThroughputCPM maps worker id to cells committed within the trailing
	// minute.
	ThroughputCPM map[string]int `json:"throughput_cpm,omitempty"`
	// ChurnPerMin counts lease reassignments within the trailing minute.
	ChurnPerMin int `json:"churn_per_min"`
	// EventsTotal is the cluster event ring's lifetime count (the SSE
	// stream's cursor space).
	EventsTotal int64 `json:"events_total"`
	// LearningRuns and LearningConverged sum the live workers' last-reported
	// learning-observability counters (thermworker_learning_*): how many
	// sampled learning runs the fleet finalized and how many of them
	// converged — the cluster-level learning-health headline.
	LearningRuns      int64 `json:"learning_runs"`
	LearningConverged int64 `json:"learning_converged"`
}

// Status assembles the current cluster status snapshot.
func (c *Coordinator) Status() ClusterStatus {
	runs, converged := c.members.LearningHealth()
	return ClusterStatus{
		Workers:           c.members.Snapshot(),
		Alive:             c.members.Alive(),
		LeasesActive:      int(c.attempts.Load()),
		ShardImbalance:    c.members.Imbalance(),
		ThroughputCPM:     c.events.RecentCommits(),
		ChurnPerMin:       c.events.RecentReassigns(),
		EventsTotal:       c.events.Total(),
		LearningRuns:      runs,
		LearningConverged: converged,
	}
}

// Events exposes the cluster event recorder (tests, status handlers).
func (c *Coordinator) Events() *ClusterRecorder { return c.events }

// StatusHandler serves the operator-facing cluster status surface:
//
//	GET /v1/cluster/status  ClusterStatus JSON
//	GET /v1/cluster/live    SSE: periodic "status" events + "cluster" events
//
// Mount it on the public listener next to /v1/jobs. It is read-only and
// deliberately not gated behind the cluster secret — it exposes the same
// class of information as /metrics.
func (c *Coordinator) StatusHandler() http.Handler { return c.status }

// WriteFederatedMetrics renders every live worker's last heartbeat metrics
// snapshot in Prometheus text format, each series labeled with its worker id.
// The service server appends this to its own /metrics output, so one scrape
// of the coordinator sees the whole fleet.
func (c *Coordinator) WriteFederatedMetrics(w io.Writer) error {
	return telemetry.WriteSampleFamilies(w, c.members.Federated())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	httpJSON(w, http.StatusOK, c.Status())
}

// handleLiveStatus streams the cluster's live view over Server-Sent Events:
// a "status" event (ClusterStatus JSON) every DefaultStatusPoll, interleaved
// with one "cluster" event per new ClusterEvent. The stream starts at the oldest
// retained event, so a late-joining dashboard sees recent history first; a
// client lagging past the ring resyncs at the oldest retained event.
func (c *Coordinator) handleLiveStatus(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	emit := func(event string, v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return true
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		return err == nil
	}
	var cursor int64
	tick := time.NewTicker(DefaultStatusPoll)
	defer tick.Stop()
	for {
		if !emit("status", c.Status()) {
			return
		}
		evs, cur := c.events.Since(cursor)
		cursor = cur
		for _, ev := range evs {
			if !emit("cluster", ev) {
				return
			}
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-c.ctx.Done():
			return
		case <-tick.C:
		}
	}
}
