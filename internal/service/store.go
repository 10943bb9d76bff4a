package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

// DefaultTTL is how long finished jobs stay queryable before eviction.
const DefaultTTL = time.Hour

// record is the store's authoritative, mutex-guarded state for one job.
type record struct {
	job Job
	// rows is the assembled result, set exactly once at completion.
	rows any
	// cancel aborts the job's context. It and the two observation handles
	// below are bound by the pool when the job launches (Bind).
	cancel context.CancelFunc
	// cancelRequested remembers a DELETE while the job was still running,
	// so the finalizer lands on cancelled rather than failed.
	cancelRequested bool
	// latched is the terminal state the finalizer committed to (Latch);
	// empty until then. Once set, Cancel no longer changes the outcome and
	// Finish commits exactly this state.
	latched State
	// tracer is the job's span tracer, exported by the trace endpoint; its
	// epoch spans are the job's decision trace (the events and live
	// endpoints).
	tracer *telemetry.Tracer
	// learning is the job's learning-curve set, exported by the learning
	// endpoint.
	learning *rl.CurveSet
	// done is closed on the transition into a terminal state.
	done chan struct{}
}

// Store is the in-memory job store. All access is serialized by one mutex;
// reads return snapshot copies so callers never share mutable state with
// the pool's workers.
type Store struct {
	mu   sync.Mutex
	ttl  time.Duration
	now  func() time.Time
	seq  int
	jobs map[string]*record
	// journal, when attached, receives one durable record per lifecycle
	// transition (submit, cell outcome, cancel request, finish, evict).
	journal Journal
	// onEvict, when set, observes each evicted job ID (the pool uses it to
	// drop the job's archived trace and learning curves alongside the
	// in-memory state). Called with s.mu held, so it must not call back into
	// the store.
	onEvict func(id string)
	log     *slog.Logger
}

// NewStore builds a store evicting finished jobs ttl after completion;
// ttl <= 0 selects DefaultTTL.
func NewStore(ttl time.Duration) *Store {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Store{ttl: ttl, now: time.Now, jobs: make(map[string]*record), log: telemetry.Component("store")}
}

// Journal is the durable sink for job-lifecycle records; *durable.Journal
// implements it.
type Journal interface {
	Append(durable.Record) error
}

// SetJournal attaches the durable journal. Attach before serving traffic;
// transitions made earlier are not journaled retroactively.
func (s *Store) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// journalLocked appends one record to the journal, if attached. A journal
// write failure is logged rather than failing the in-memory transition: the
// store stays authoritative for liveness and the log line (plus the stalled
// durable_wal_records_total counter) is the operator's durability signal.
// Callers hold s.mu, so records land in the WAL in commit order.
func (s *Store) journalLocked(rec durable.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.log.Error("journal append failed", "kind", rec.Kind, "job", rec.Job, "err", err)
	}
}

// Create registers a pending job for spec with a fixed cell budget and
// returns its snapshot.
func (s *Store) Create(spec Spec, totalCells int) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	s.seq++
	rec := &record{
		job: Job{
			ID:          fmt.Sprintf("job-%06d", s.seq),
			Spec:        spec,
			State:       StatePending,
			Progress:    Progress{TotalCells: totalCells},
			SubmittedAt: s.now(),
		},
		done: make(chan struct{}),
	}
	s.jobs[rec.job.ID] = rec
	specJSON, err := json.Marshal(spec)
	if err != nil {
		s.log.Error("spec not journalable", "job", rec.job.ID, "err", err)
	} else {
		s.journalLocked(durable.Record{
			Kind:        durable.KindSubmit,
			Job:         rec.job.ID,
			Spec:        specJSON,
			TotalCells:  totalCells,
			SubmittedAt: rec.job.SubmittedAt,
		})
	}
	return rec.job
}

// Restore installs a recovered job snapshot (with its assembled rows, if
// any) without journaling a submit record — the journal already holds the
// job. The ID sequence advances past the restored ID so new submissions
// never collide with recovered ones.
func (s *Store) Restore(job Job, rows any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := &record{job: job, rows: rows, done: make(chan struct{})}
	if job.State.Terminal() {
		close(rec.done)
	}
	s.jobs[job.ID] = rec
	if n, ok := parseJobSeq(job.ID); ok && n > s.seq {
		s.seq = n
	}
}

// parseJobSeq extracts the numeric sequence from a "job-%06d" id.
func parseJobSeq(id string) (int, bool) {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Get returns the snapshot of one job.
func (s *Store) Get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	rec, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return rec.job, true
}

// List returns snapshots of every live job in submission order.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictLocked()
	out := make([]Job, 0, len(s.jobs))
	for _, rec := range s.jobs {
		out = append(out, rec.job)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Rows returns the assembled result of a finished job (nil until then).
func (s *Store) Rows(id string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return rec.rows, true
}

// Done returns a channel closed when the job reaches a terminal state; a
// nil channel (never ready) is returned for unknown ids.
func (s *Store) Done(id string) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil
	}
	return rec.done
}

// Bind attaches the pool-side handles of job id: the cancel function of its
// context, its span tracer and learning-curve set. A job whose cancellation
// was requested before Bind (a DELETE between Create and Bind) has its
// context cancelled here, so none of its cells run.
func (s *Store) Bind(id string, cancel context.CancelFunc, tracer *telemetry.Tracer, curves *rl.CurveSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.jobs[id]; ok {
		rec.cancel, rec.tracer, rec.learning = cancel, tracer, curves
		if rec.cancelRequested {
			cancel()
		}
	}
}

// Learning returns the job's learning-curve set (nil when none was bound;
// the set itself is safe to snapshot while the job runs).
func (s *Store) Learning(id string) (*rl.CurveSet, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return rec.learning, true
}

// Tracer returns the job's span tracer (nil when none was bound; the tracer
// itself is safe to snapshot while the job runs).
func (s *Store) Tracer(id string) (*telemetry.Tracer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return rec.tracer, true
}

// SetOnEvict installs the hook observing evicted job IDs, replacing any
// earlier one. Set before serving traffic; the hook runs under the store
// lock and must not re-enter the store.
func (s *Store) SetOnEvict(fn func(id string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onEvict = fn
}

// Start transitions pending → running. It fails on jobs already cancelled,
// so a worker racing a DELETE backs off cleanly.
func (s *Store) Start(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("service: start of unknown job %s", id)
	}
	if rec.job.State == StateRunning {
		return nil
	}
	if !rec.job.State.CanTransition(StateRunning) {
		return fmt.Errorf("service: job %s is %s, cannot start", id, rec.job.State)
	}
	rec.job.State = StateRunning
	rec.job.StartedAt = s.now()
	return nil
}

// AddProgress credits finished cells to a job.
func (s *Store) AddProgress(id string, done, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.jobs[id]; ok {
		rec.job.Progress.DoneCells += done
		rec.job.Progress.FailedCells += failed
	}
}

// CellDone journals one cell's committed outcome (row or error), so a
// restart resumes the job without re-running it. The in-memory row stays
// with the pool; only the durable copy passes through the store. worker
// attributes the outcome to the cluster node that executed the cell (""
// for in-process execution), so the journal doubles as a dispatch audit.
func (s *Store) CellDone(id string, idx int, row any, cellErr error, worker string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return
	}
	rec := durable.Record{Kind: durable.KindCell, Job: id, Cell: idx, Worker: worker}
	if cellErr != nil {
		rec.Err = cellErr.Error()
	} else {
		rowJSON, err := json.Marshal(row)
		if err != nil {
			s.log.Error("cell row not journalable", "job", id, "cell", idx, "err", err)
			return
		}
		rec.Row = rowJSON
	}
	s.journalLocked(rec)
}

// Latch decides job id's terminal state once, under the store lock, and
// returns it: cancelled if cancellation was requested (or cancelled is set),
// failed if runErr is non-nil, done otherwise. A job that is already
// terminal or latched keeps its state. From the latch on, Cancel treats the
// job as terminal, so the state the pool records on the job span and in the
// archives before calling Finish is the state Finish commits.
func (s *Store) Latch(id string, runErr error, cancelled bool) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		// Nothing to latch on an unknown job: decide from the arguments.
		rec = &record{}
	}
	return latchLocked(rec, runErr, cancelled)
}

// latchLocked is Latch for a held lock.
func latchLocked(rec *record, runErr error, cancelled bool) State {
	if rec.job.State.Terminal() {
		return rec.job.State
	}
	if rec.latched == "" {
		switch {
		case cancelled || rec.cancelRequested:
			rec.latched = StateCancelled
		case runErr != nil:
			rec.latched = StateFailed
		default:
			rec.latched = StateDone
		}
	}
	return rec.latched
}

// Finish moves a job into its terminal state: the state Latch decided, or
// — when nothing latched it — the state Latch would decide now. rows may
// carry partial results alongside an error. Finishing an already-terminal
// job (a cancelled-while-pending job being finalized by the pool) is a
// no-op that still records any rows.
func (s *Store) Finish(id string, rows any, runErr error, cancelled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return
	}
	if rec.rows == nil && rows != nil {
		rec.rows = rows
	}
	if rec.job.State.Terminal() {
		return
	}
	s.finalizeLocked(rec, latchLocked(rec, runErr, cancelled), runErr)
}

// Cancel requests cancellation. A pending job is cancelled on the spot; a
// running job is cancelled by the pool once its in-flight cells unwind. A
// job whose terminal state is already latched is past cancelling: like a
// terminal job, it is returned unchanged and nothing is journaled. The
// returned snapshot reflects the post-call state.
func (s *Store) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("service: cancel of unknown job %s", id)
	}
	if rec.job.State.Terminal() || rec.latched != "" {
		return rec.job, nil
	}
	rec.cancelRequested = true
	// The request itself is journaled for every non-terminal job — including
	// one still queued and never started — so a crash before the pool
	// finalizes recovers into cancellation, not a silent resume.
	s.journalLocked(durable.Record{Kind: durable.KindCancel, Job: rec.job.ID})
	if rec.cancel != nil {
		rec.cancel()
	}
	if rec.job.State == StatePending {
		s.finalizeLocked(rec, StateCancelled, nil)
	}
	return rec.job, nil
}

// finalizeLocked commits a terminal transition. Callers hold s.mu.
func (s *Store) finalizeLocked(rec *record, next State, runErr error) {
	rec.job.State = next
	rec.job.FinishedAt = s.now()
	if !rec.job.StartedAt.IsZero() {
		rec.job.WallClockS = rec.job.FinishedAt.Sub(rec.job.StartedAt).Seconds()
	}
	if runErr != nil {
		rec.job.Error = runErr.Error()
	}
	s.journalLocked(durable.Record{
		Kind:       durable.KindFinish,
		Job:        rec.job.ID,
		State:      string(next),
		Error:      rec.job.Error,
		StartedAt:  rec.job.StartedAt,
		FinishedAt: rec.job.FinishedAt,
		WallClockS: rec.job.WallClockS,
	})
	close(rec.done)
}

// Sweep evicts finished jobs older than the TTL and reports how many were
// removed. Create/Get/List also sweep opportunistically.
func (s *Store) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictLocked()
}

func (s *Store) evictLocked() int {
	cutoff := s.now().Add(-s.ttl)
	n := 0
	for id, rec := range s.jobs {
		if rec.job.State.Terminal() && rec.job.FinishedAt.Before(cutoff) {
			delete(s.jobs, id)
			// Dropped from the durable state too, so compaction cannot
			// resurrect an evicted job and the snapshot stays bounded.
			s.journalLocked(durable.Record{Kind: durable.KindEvict, Job: id})
			if s.onEvict != nil {
				s.onEvict(id)
			}
			n++
		}
	}
	return n
}

// CountByState tallies live jobs per lifecycle state (for /metrics).
func (s *Store) CountByState() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int)
	for _, rec := range s.jobs {
		out[rec.job.State]++
	}
	return out
}
