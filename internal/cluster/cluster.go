// Package cluster splits the thermserved job service into a coordinator and
// N worker nodes, so a single process's worker pool stops being the ceiling
// for campaign throughput.
//
// Topology: workers register with the coordinator over HTTP and send
// periodic heartbeats. The coordinator keeps the public /v1/jobs API and the
// durable journal, but instead of executing cells in-process it hands each
// one to the live worker with the most free capacity (the lowest
// inflight/capacity ratio) as one time-bounded attempt, a lease. Workers are
// stateless re-planners, so any of them can run any cell; free slots alone
// decide placement. A worker executes its cell by replanning the job's spec
// (cells are explicitly seeded, so any node computes the same row) and
// answers the assignment with the result, one HTTP exchange per cell; the
// coordinator aggregates rows bit-identically to a standalone run.
//
// Failure semantics: an attempt ends with a result, or it fails and the cell
// is reassigned to another live worker, the failed one taken again only when
// no other has a free slot. A worker an attempt could not reach at all is
// passed over by every placement until its next heartbeat, unless every live
// worker is in the same state. An attempt fails when it outlives its TTL (slow
// or wedged worker), when its worker is declared dead after missing enough
// heartbeats or re-registers, when the connection breaks, and when the
// worker refuses it or answers something that does not decode. A failed
// attempt's request is cancelled, so its result never arrives and a cell
// commits at most once. Because the coordinator journals every committed
// cell through internal/durable, both in-process reassignment and a full
// coordinator restart re-feed only the uncommitted cells.
//
// Backpressure: admission control on /v1/jobs (queue-depth-aware 429 with
// Retry-After, service.OverloadedError) bounds the coordinator's queue, and
// a per-worker inflight cap bounds each worker; dispatch blocks until a slot
// frees rather than overrunning a node.
package cluster

import "time"

// Defaults for Config fields left zero, and the coordinator's fixed limits.
const (
	// DefaultLeaseTTL bounds how long one cell attempt may wait for the
	// worker's answer before the coordinator reassigns it. It must exceed the
	// longest cell runtime; campaign cells run minutes at full fidelity.
	DefaultLeaseTTL = 10 * time.Minute
	// DefaultHeartbeatEvery is the worker heartbeat period. A worker silent
	// for five periods is declared dead and its cells in flight are
	// reassigned.
	DefaultHeartbeatEvery = 2 * time.Second
	// DefaultDispatchWidth is the coordinator's default pool size: each pool
	// worker goroutine spends its life blocked in RunCell while the cell
	// executes remotely, so the pool bounds cluster-wide in-flight cells and
	// must be sized to the fleet's aggregate capacity, not the coordinator's
	// own CPU count. Dispatchers are cheap (a goroutine parked on one HTTP
	// exchange), so the default is generous.
	DefaultDispatchWidth = 256
	// DefaultStormWindow is the sliding window for cluster storm detection.
	DefaultStormWindow = 10 * time.Second
	// DefaultStormReassigns / DefaultStormDeaths are the in-window event
	// counts that trip a lease-storm / heartbeat-loss anomaly. Reassignments
	// are routine one at a time (a slow worker) but a burst means work is
	// bouncing; several deaths in one window means partition, not one bad
	// node.
	DefaultStormReassigns = 8
	DefaultStormDeaths    = 3
	// DefaultStatusPoll is the /v1/cluster/live SSE refresh period.
	DefaultStatusPoll = time.Second
)

// Config parameterizes a Coordinator. The zero value selects every default.
type Config struct {
	// LeaseTTL bounds one cell attempt, from the assignment to the worker's
	// answer; 0 selects DefaultLeaseTTL.
	LeaseTTL time.Duration
	// HeartbeatEvery is handed to workers at registration; 0 selects
	// DefaultHeartbeatEvery. A worker silent for 5x this is declared dead.
	HeartbeatEvery time.Duration
	// Secret, when non-empty, gates every /cluster/v2/* route behind a
	// shared bearer token and attaches it to outgoing assignments, so a
	// coordinator reachable from untrusted networks cannot be fed bogus
	// worker registrations (which would black-hole leased cells until TTL
	// expiry). Empty disables authentication; workers must be configured
	// with the same value.
	Secret string
	// FlightDir, when non-empty, enables the cluster flight recorder: a
	// lease-reassignment storm or heartbeat-loss burst dumps the newest
	// cluster events to <FlightDir>/flightrec-cluster.json. Storm detection
	// and the event ring run regardless; only the dump needs a directory.
	FlightDir string
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = DefaultHeartbeatEvery
	}
	return c
}

// expireAfter is how long a worker may stay silent before it is declared
// dead.
func (c Config) expireAfter() time.Duration { return 5 * c.HeartbeatEvery }
