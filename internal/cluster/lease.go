package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Result is one cell outcome streamed back by a worker; exactly one of Row
// and Err is meaningful. Spans and ExecUS are the observability piggyback:
// the worker-side span batch (already clock-aligned) and the remote wall
// time, delivered to the dispatcher alongside the result. Arrived is when
// the completion reached the coordinator, before its body was decoded: the
// start of the cell's commit phase.
type Result struct {
	Row     json.RawMessage
	Err     string
	Spans   []telemetry.Span
	ExecUS  int64
	Arrived time.Time
}

// Lease is one time-bounded cell assignment. The dispatching goroutine
// selects on Done (result arrived) and Expired (TTL elapsed, worker died, or
// the assignment could not be delivered); the lease table guarantees at most
// one of the two fires.
type Lease struct {
	ID     uint64
	Job    string
	Cell   int
	Worker string

	done    chan Result
	expired chan struct{}
	timer   *time.Timer
}

// Done delivers the worker's result, at most once.
func (l *Lease) Done() <-chan Result { return l.done }

// Expired is closed when the lease will never be satisfied and the cell must
// be reassigned.
func (l *Lease) Expired() <-chan struct{} { return l.expired }

// Leases is the coordinator's table of outstanding cell assignments, keyed
// by (job, cell). A completion is accepted only while its lease is the
// active one for that key and carries the matching lease id — anything else
// (late result after expiry, double delivery, unknown cell) is reported as a
// duplicate and dropped, which makes worker completions idempotent.
type Leases struct {
	mu     sync.Mutex
	nextID uint64
	active map[string]*Lease
}

// NewLeases returns an empty lease table.
func NewLeases() *Leases {
	return &Leases{active: make(map[string]*Lease)}
}

func leaseKey(job string, cell int) string { return fmt.Sprintf("%s/%d", job, cell) }

// Grant issues a new lease on (job, cell) held by worker, expiring after
// ttl. A still-active lease on the same key (only possible if a caller
// re-grants without waiting for expiry) is force-expired first, preserving
// the one-active-lease-per-cell invariant.
func (ls *Leases) Grant(job string, cell int, worker string, ttl time.Duration) *Lease {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	key := leaseKey(job, cell)
	if old, ok := ls.active[key]; ok {
		ls.expireLocked(old)
	}
	ls.nextID++
	l := &Lease{
		ID:      ls.nextID,
		Job:     job,
		Cell:    cell,
		Worker:  worker,
		done:    make(chan Result, 1),
		expired: make(chan struct{}),
	}
	ls.active[key] = l
	l.timer = time.AfterFunc(ttl, func() { ls.Expire(l) })
	return l
}

// Complete delivers a worker's result for (job, cell) under leaseID,
// reporting false when the lease is stale — already expired, already
// satisfied, superseded by a reassignment, or held by a different worker.
// commit, when non-nil, runs once the lease is validated and before the
// result is delivered, so whatever it records is visible by the time the
// dispatcher sees the result (and the job possibly finishes).
func (ls *Leases) Complete(job string, cell int, leaseID uint64, worker string, res Result, commit func()) bool {
	ls.mu.Lock()
	key := leaseKey(job, cell)
	l, ok := ls.active[key]
	if !ok || l.ID != leaseID || l.Worker != worker {
		ls.mu.Unlock()
		return false
	}
	delete(ls.active, key)
	l.timer.Stop()
	ls.mu.Unlock()
	// The lease left the table above, so no expiry or second completion
	// can touch it while commit runs outside the lock.
	if commit != nil {
		commit()
	}
	l.done <- res // buffered; exactly one send per lease
	return true
}

// Expire force-expires l if it is still the active lease for its cell (a
// no-op otherwise): the TTL timer, a failed assignment delivery, and a
// worker death all converge here.
func (ls *Leases) Expire(l *Lease) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	key := leaseKey(l.Job, l.Cell)
	if cur, ok := ls.active[key]; ok && cur.ID == l.ID {
		ls.expireLocked(cur)
	}
}

// expireLocked removes l and closes its expired channel. Callers hold ls.mu
// and have verified l is active.
func (ls *Leases) expireLocked(l *Lease) {
	delete(ls.active, leaseKey(l.Job, l.Cell))
	l.timer.Stop()
	close(l.expired)
}

// Cancel withdraws a lease without expiring it (the dispatching context was
// cancelled; nobody is listening anymore).
func (ls *Leases) Cancel(l *Lease) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	key := leaseKey(l.Job, l.Cell)
	if cur, ok := ls.active[key]; ok && cur.ID == l.ID {
		delete(ls.active, key)
		cur.timer.Stop()
	}
}

// ExpireWorker force-expires every active lease held by worker (declared
// dead), returning how many were expired; their cells reassign immediately
// instead of waiting out the TTL.
func (ls *Leases) ExpireWorker(worker string) int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	n := 0
	for _, l := range ls.active {
		if l.Worker == worker {
			ls.expireLocked(l)
			n++
		}
	}
	return n
}

// Active is the number of outstanding leases.
func (ls *Leases) Active() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.active)
}
