package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// member is the coordinator-side state of one registered worker.
type member struct {
	id       string
	url      string
	capacity int
	// inflight counts attempts in flight on this worker; bounded by
	// capacity through Acquire.
	inflight int
	// assigned is the lifetime lease count: Acquire's tie-break and the
	// shard-imbalance gauge.
	assigned int64
	// completed is the lifetime count of results this worker delivered.
	completed int64
	lastBeat  time.Time
	// clockOffsetUS is the worker's last reported clock-offset estimate
	// (coordinator clock - worker clock), microseconds.
	clockOffsetUS int64
	// metrics is the worker's last heartbeat registry snapshot; it dies with
	// the member, so federation never exposes a dead node's series.
	metrics []telemetry.SampleFamily
	// alive ends when the member is swept dead or replaced by a
	// re-registration, cancelling every attempt in flight on it.
	alive  context.Context
	cancel context.CancelFunc
	// suspect marks a worker an attempt could not reach (see Release): most
	// likely a process that died since its last heartbeat. Acquire passes it
	// over while any live worker is not suspect; its next heartbeat clears
	// the mark, and the sweep removes it with the member.
	suspect bool
}

// errUnknownWorker answers a heartbeat from an id the coordinator does not
// know; the worker should re-register.
var errUnknownWorker = errors.New("cluster: unknown worker")

// workerMetricPrefix is the one prefix a worker registers its metrics under,
// so a federated family never collides with one of the coordinator's own.
const workerMetricPrefix = "thermworker_"

// Membership tracks registered workers, their heartbeats and their inflight
// budgets, and places each cell on one of them. All methods are safe for
// concurrent use.
type Membership struct {
	mu      sync.Mutex
	workers map[string]*member
	// changed is closed and replaced whenever placement inputs change
	// (registration, death, slot release), waking Acquire waiters.
	changed chan struct{}
	now     func() time.Time
}

// NewMembership builds an empty membership.
func NewMembership() *Membership {
	return &Membership{
		workers: make(map[string]*member),
		changed: make(chan struct{}),
		now:     time.Now,
	}
}

// broadcastLocked wakes every Acquire waiter. Callers hold m.mu.
func (m *Membership) broadcastLocked() {
	close(m.changed)
	m.changed = make(chan struct{})
}

// Register adds (or replaces) a worker. Capacity <= 0 is normalized to 1.
// Re-registration resets the heartbeat clock and the inflight count but
// keeps the lifetime assigned count when the id was already known, so
// imbalance accounting survives a worker restart. It cancels the previous
// incarnation's attempts: that process is gone, and the reset inflight count
// would otherwise let the coordinator oversubscribe the new one.
func (m *Membership) Register(id, url string, capacity int) error {
	if id == "" || url == "" {
		return fmt.Errorf("cluster: register needs id and url (got id=%q url=%q)", id, url)
	}
	if capacity <= 0 {
		capacity = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &member{id: id, url: url, capacity: capacity, lastBeat: m.now()}
	w.alive, w.cancel = context.WithCancel(context.Background())
	if old, ok := m.workers[id]; ok {
		w.assigned = old.assigned
		w.completed = old.completed
		old.cancel()
	}
	m.workers[id] = w
	m.broadcastLocked()
	return nil
}

// Heartbeat refreshes a worker's liveness and absorbs the beat's telemetry
// payload (clock-offset estimate, registry snapshot). It returns
// errUnknownWorker for an id the coordinator does not know (the worker should
// re-register), and refuses metrics that checkMetricsLocked rejects without
// changing anything.
func (m *Membership) Heartbeat(id string, clockOffsetUS int64, metrics []telemetry.SampleFamily) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[id]
	if !ok {
		return errUnknownWorker
	}
	if metrics != nil {
		if err := m.checkMetricsLocked(w, metrics); err != nil {
			return err
		}
		w.metrics = metrics
	}
	w.lastBeat = m.now()
	w.clockOffsetUS = clockOffsetUS
	if w.suspect {
		w.suspect = false
		m.broadcastLocked()
	}
	return nil
}

// checkMetricsLocked reports why metrics may not become w's federated
// snapshot: a family without the thermworker_ prefix or of another kind than
// a live worker federates it under, a label set that does not parse, or a
// fleet exposition that fails the Prometheus lint with metrics in place.
// Kinds that agree across workers keep the exposition conformant when a
// member later leaves. Callers hold m.mu.
func (m *Membership) checkMetricsLocked(w *member, metrics []telemetry.SampleFamily) error {
	kinds := make(map[string]string)
	for _, other := range m.workers {
		if other != w {
			for _, fam := range other.metrics {
				kinds[fam.Name] = fam.Kind
			}
		}
	}
	for _, fam := range metrics {
		if !strings.HasPrefix(fam.Name, workerMetricPrefix) {
			return fmt.Errorf("cluster: metric family %q lacks the %s prefix", fam.Name, workerMetricPrefix)
		}
		if kind, ok := kinds[fam.Name]; ok && kind != fam.Kind {
			return fmt.Errorf("cluster: metric family %s is a %q, other workers send a %q", fam.Name, fam.Kind, kind)
		}
		for _, s := range fam.Series {
			if _, err := telemetry.ParseLabels(s.Labels); err != nil {
				return fmt.Errorf("cluster: metric family %s: %w", fam.Name, err)
			}
		}
	}
	old := w.metrics
	w.metrics = metrics
	var page bytes.Buffer
	err := telemetry.WriteSampleFamilies(&page, m.federatedLocked())
	w.metrics = old
	if err != nil {
		return err
	}
	return telemetry.ValidatePrometheus(&page)
}

// Committed credits one delivered result to a worker (a no-op for dead ids).
func (m *Membership) Committed(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w, ok := m.workers[id]; ok {
		w.completed++
	}
}

// ClockOffsetUS returns a worker's last reported clock-offset estimate (0 for
// unknown ids or workers that never estimated).
func (m *Membership) ClockOffsetUS(id string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w, ok := m.workers[id]; ok {
		return w.clockOffsetUS
	}
	return 0
}

// Federated merges every live worker's last metrics snapshot into one family
// list, each series gaining a worker label — the coordinator re-exposes the
// result on /metrics. Families are merged by name (help/kind from the first
// worker to report them); output is sorted by family name, series by label.
func (m *Membership) Federated() []telemetry.SampleFamily {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.federatedLocked()
}

// federatedLocked is Federated for callers holding m.mu.
func (m *Membership) federatedLocked() []telemetry.SampleFamily {
	byName := make(map[string]*telemetry.SampleFamily)
	var order []string
	ids := make([]string, 0, len(m.workers))
	for id := range m.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, fam := range m.workers[id].metrics {
			merged, ok := byName[fam.Name]
			if !ok {
				merged = &telemetry.SampleFamily{Name: fam.Name, Help: fam.Help, Kind: fam.Kind}
				byName[fam.Name] = merged
				order = append(order, fam.Name)
			}
			for _, s := range fam.Series {
				s.Labels = telemetry.WithLabel(s.Labels, "worker", id)
				merged.Series = append(merged.Series, s)
			}
		}
	}
	sort.Strings(order)
	out := make([]telemetry.SampleFamily, 0, len(order))
	for _, name := range order {
		fam := byName[name]
		sort.Slice(fam.Series, func(i, j int) bool { return fam.Series[i].Labels < fam.Series[j].Labels })
		out = append(out, *fam)
	}
	return out
}

// LearningHealth sums the fleet's learning-observability counters from each
// live worker's last heartbeat snapshot: total sampled runs and how many of
// them converged. Dead workers' contributions vanish with their membership,
// like every other federated series.
func (m *Membership) LearningHealth() (runs, converged int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, w := range m.workers {
		for _, fam := range w.metrics {
			var dst *int64
			switch fam.Name {
			case "thermworker_learning_runs_total":
				dst = &runs
			case "thermworker_learning_converged_total":
				dst = &converged
			default:
				continue
			}
			for _, s := range fam.Series {
				*dst += int64(s.Value)
			}
		}
	}
	return runs, converged
}

// Sweep removes every worker whose last heartbeat is older than expireAfter,
// cancelling its attempts in flight, and returns their ids.
func (m *Membership) Sweep(expireAfter time.Duration) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := m.now().Add(-expireAfter)
	var dead []string
	for id, w := range m.workers {
		if w.lastBeat.Before(cutoff) {
			dead = append(dead, id)
			w.cancel()
			delete(m.workers, id)
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		m.broadcastLocked()
	}
	return dead
}

// Acquire blocks until a live worker has a free inflight slot and claims one,
// returning the worker's id, its URL and a context that ends when that
// worker is swept dead or re-registers. It takes the worker with the lowest
// inflight/capacity ratio; ties go to the fewest lifetime assignments, then
// to the lowest id. avoid names a worker to pass over (a reassignment passes
// the one whose attempt failed); it is taken only when no other worker has a
// free slot. A suspect worker is taken only when every live worker is
// suspect. Release must be called exactly once per successful Acquire.
func (m *Membership) Acquire(ctx context.Context, avoid string) (id, url string, alive context.Context, err error) {
	for {
		m.mu.Lock()
		allSuspect := true
		for _, w := range m.workers {
			allSuspect = allSuspect && w.suspect
		}
		var best *member
		for _, w := range m.workers {
			if w.inflight < w.capacity && (!w.suspect || allSuspect) && (best == nil || placeBefore(w, best, avoid)) {
				best = w
			}
		}
		if best != nil {
			best.inflight++
			best.assigned++
			m.mu.Unlock()
			return best.id, best.url, best.alive, nil
		}
		ch := m.changed
		m.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return "", "", nil, ctx.Err()
		}
	}
}

// placeBefore orders Acquire's candidates: any worker before avoid, then the
// lower inflight/capacity ratio, the fewer lifetime assignments and the lower
// id.
func placeBefore(a, b *member, avoid string) bool {
	if (a.id == avoid) != (b.id == avoid) {
		return b.id == avoid
	}
	if l, r := a.inflight*b.capacity, b.inflight*a.capacity; l != r {
		return l < r
	}
	if a.assigned != b.assigned {
		return a.assigned < b.assigned
	}
	return a.id < b.id
}

// Release returns one inflight slot to a worker; a no-op for ids that died
// in the meantime. unreachable reports that the attempt failed before any
// response arrived (dial refused, connection reset, EOF), which marks the
// worker suspect.
func (m *Membership) Release(id string, unreachable bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[id]
	if !ok {
		return
	}
	if w.inflight > 0 {
		w.inflight--
	}
	if unreachable {
		w.suspect = true
	}
	m.broadcastLocked()
}

// Alive is the live worker count.
func (m *Membership) Alive() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers)
}

// Snapshot lists the membership in id order for the workers endpoint.
func (m *Membership) Snapshot() []WorkerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	out := make([]WorkerStatus, 0, len(m.workers))
	for _, w := range m.workers {
		out = append(out, WorkerStatus{
			ID:            w.id,
			URL:           w.url,
			Capacity:      w.capacity,
			Inflight:      w.inflight,
			Assigned:      w.assigned,
			Completed:     w.completed,
			LastBeatMs:    now.Sub(w.lastBeat).Milliseconds(),
			ClockOffsetUS: w.clockOffsetUS,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Imbalance is the shard-imbalance factor: max lifetime assignments over the
// mean across live workers. 1.0 is perfectly balanced; 0 when fewer than two
// workers have taken work (imbalance is meaningless there).
func (m *Membership) Imbalance() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max, sum int64
	n := 0
	for _, w := range m.workers {
		if w.assigned > max {
			max = w.assigned
		}
		sum += w.assigned
		n++
	}
	if n < 2 || sum == 0 {
		return 0
	}
	return float64(max) * float64(n) / float64(sum)
}
