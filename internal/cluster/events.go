package cluster

import (
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Cluster event kinds recorded by the coordinator's flight ring.
const (
	// EventWorkerRegistered: a worker joined (or rejoined) the membership.
	EventWorkerRegistered = "worker_registered"
	// EventWorkerDead: a worker missed enough heartbeats and was swept.
	EventWorkerDead = "worker_dead"
	// EventLeaseGranted: one cell attempt was handed to a worker.
	EventLeaseGranted = "lease_granted"
	// EventLeaseExpired: an attempt failed before its result arrived (TTL,
	// worker death or re-registration, connection error, refusal, bad body).
	EventLeaseExpired = "lease_expired"
	// EventLeaseReassigned: a cell got a new attempt after a prior one failed.
	EventLeaseReassigned = "lease_reassigned"
	// EventCellCommitted: a worker's result was accepted and committed.
	EventCellCommitted = "cell_committed"
)

// ClusterEvent is one entry in the coordinator's cluster flight ring: a
// membership or lease transition, timestamped on the coordinator's clock.
type ClusterEvent struct {
	// TimeUS is wall-clock microseconds since the Unix epoch.
	TimeUS int64 `json:"time_us"`
	// Kind is one of the Event* constants above.
	Kind   string `json:"kind"`
	Worker string `json:"worker,omitempty"`
	Job    string `json:"job,omitempty"`
	Cell   int    `json:"cell,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// clusterRingCapacity bounds the retained cluster events; a storm dump
// carries at most clusterDumpEvents of them.
const (
	clusterRingCapacity = 1024
	clusterDumpEvents   = 256
	clusterMaxAnomalies = 16
)

// ClusterRecorder is the cluster-level black box: a bounded ring of
// membership/lease events with a cursor-based reader (the SSE live stream),
// plus storm detection — a burst of lease reassignments or worker deaths
// within the configured window trips an anomaly and dumps the newest events
// to <dir>/flightrec-cluster.json, mirroring the per-job flight recorder.
// All methods are safe for concurrent use and nil-receiver safe.
type ClusterRecorder struct {
	mu   sync.Mutex
	ring telemetry.Ring[ClusterEvent]
	now  func() time.Time

	// Storm detection state: recent reassignment / death timestamps (µs)
	// pruned to the window, and a cooldown so one storm dumps once, not once
	// per event.
	window        time.Duration
	reassignLimit int
	deathLimit    int
	reassignsUS   []int64
	deathsUS      []int64
	cooldownUS    map[string]int64

	dir       string
	anomalies []telemetry.Anomaly
	reg       *telemetry.Registry
	log       *slog.Logger
}

// NewClusterRecorder builds a recorder dumping storm context into dir (""
// disables dumps but keeps the ring and the alert counters). reg receives the
// flightrec_alerts_total counters; nil selects telemetry.Default().
func NewClusterRecorder(dir string, window time.Duration, reassignLimit, deathLimit int, reg *telemetry.Registry) *ClusterRecorder {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &ClusterRecorder{
		ring:          telemetry.NewRing[ClusterEvent](clusterRingCapacity),
		now:           time.Now,
		window:        window,
		reassignLimit: reassignLimit,
		deathLimit:    deathLimit,
		cooldownUS:    make(map[string]int64),
		dir:           dir,
		reg:           reg,
		log:           telemetry.Component("cluster-flightrec"),
	}
}

// Record appends one event (stamping TimeUS when zero) and runs storm
// detection on the reassignment/death kinds.
func (c *ClusterRecorder) Record(ev ClusterEvent) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.TimeUS == 0 {
		ev.TimeUS = c.now().UnixMicro()
	}
	c.ring.Push(ev)
	switch ev.Kind {
	case EventLeaseReassigned:
		c.reassignsUS = append(c.reassignsUS, ev.TimeUS)
		c.reassignsUS = pruneWindow(c.reassignsUS, ev.TimeUS, c.window)
		if c.reassignLimit > 0 && len(c.reassignsUS) >= c.reassignLimit {
			c.tripLocked(telemetry.AnomalyLeaseStorm, ev.TimeUS,
				"lease-reassignment storm: work is bouncing between workers")
		}
	case EventWorkerDead:
		c.deathsUS = append(c.deathsUS, ev.TimeUS)
		c.deathsUS = pruneWindow(c.deathsUS, ev.TimeUS, c.window)
		if c.deathLimit > 0 && len(c.deathsUS) >= c.deathLimit {
			c.tripLocked(telemetry.AnomalyHeartbeatLoss, ev.TimeUS,
				"heartbeat-loss burst: several workers died within the storm window")
		}
	}
}

// pruneWindow drops timestamps older than nowUS-window.
func pruneWindow(ts []int64, nowUS int64, window time.Duration) []int64 {
	cutoff := nowUS - window.Microseconds()
	i := 0
	for i < len(ts) && ts[i] < cutoff {
		i++
	}
	return ts[i:]
}

// tripLocked records one storm anomaly and dumps the event ring, rate-limited
// to one dump per window per anomaly kind (a heartbeat-loss burst arriving
// mid lease-storm is distinct signal, not a repeat). Callers hold c.mu.
func (c *ClusterRecorder) tripLocked(kind string, nowUS int64, detail string) {
	if nowUS < c.cooldownUS[kind] {
		return
	}
	c.cooldownUS[kind] = nowUS + c.window.Microseconds()
	c.reg.Counter("flightrec_alerts_total", "Anomalies detected by the flight recorder, by kind.",
		telemetry.L("kind", kind)).Inc()
	c.log.Warn("cluster anomaly tripped", "kind", kind, "detail", detail)
	if len(c.anomalies) < clusterMaxAnomalies {
		c.anomalies = append(c.anomalies, telemetry.Anomaly{Kind: kind, Detail: detail})
	}
	if c.dir == "" {
		return
	}
	evs := c.ring.Items()
	if len(evs) > clusterDumpEvents {
		evs = evs[len(evs)-clusterDumpEvents:]
	}
	dump := struct {
		Anomalies []telemetry.Anomaly `json:"anomalies"`
		Events    []ClusterEvent      `json:"events"`
	}{Anomalies: c.anomalies, Events: evs}
	if err := telemetry.WriteFileAtomic(filepath.Join(c.dir, "flightrec-cluster.json"), dump); err != nil {
		c.reg.Counter("flightrec_dump_errors_total", "Flight-recorder dump files that failed to write.").Inc()
	}
}

// Events returns the retained events, oldest first.
func (c *ClusterRecorder) Events() []ClusterEvent {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Items()
}

// Total returns how many events were ever recorded, including overwritten
// ones; it is the cursor space of Since.
func (c *ClusterRecorder) Total() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Total()
}

// Since returns the events recorded after cursor (a value previously
// returned by Since, or 0 for "from the beginning") plus the new cursor.
// Events already overwritten are skipped — a lagging SSE client resyncs at
// the oldest retained event instead of blocking the ring.
func (c *ClusterRecorder) Since(cursor int64) ([]ClusterEvent, int64) {
	if c == nil {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Since(cursor)
}

// RecentCommits counts cell_committed events per worker within the trailing
// window — the status surface's per-worker throughput signal.
func (c *ClusterRecorder) RecentCommits(window time.Duration) map[string]int {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := c.now().UnixMicro() - window.Microseconds()
	out := make(map[string]int)
	for _, ev := range c.ring.Items() {
		if ev.Kind == EventCellCommitted && ev.TimeUS >= cutoff {
			out[ev.Worker]++
		}
	}
	return out
}

// RecentReassigns counts lease reassignments within the trailing window —
// the lease-churn-rate gauge's source.
func (c *ClusterRecorder) RecentReassigns(window time.Duration) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := c.now().UnixMicro() - window.Microseconds()
	n := 0
	for _, ev := range c.ring.Items() {
		if ev.Kind == EventLeaseReassigned && ev.TimeUS >= cutoff {
			n++
		}
	}
	return n
}
