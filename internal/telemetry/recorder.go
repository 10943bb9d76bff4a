package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// Decision-event kinds. Every decision epoch records one event: a plain
// decision, or one of the workload-variation handling outcomes of the
// paper's Section 5.4 (the controller maps its internal event strings onto
// these).
const (
	// EventDecision is a regular epoch: state observed, action applied.
	EventDecision = "decision"
	// EventQReset is an inter-application variation: the Q-table was reset
	// and learning restarted from scratch.
	EventQReset = "q_reset"
	// EventSnapshotRestore is an intra-application variation: the
	// exploration-end snapshot was restored.
	EventSnapshotRestore = "snapshot_restore"
	// EventAdopt is an inter-application variation answered from the
	// signature library (policy adopted instead of re-learned).
	EventAdopt = "adopt"
	// EventAdoptConfirmed and EventAdoptReverted resolve a tentative
	// adoption once the moving averages settle.
	EventAdoptConfirmed = "adopt_confirmed"
	EventAdoptReverted  = "adopt_reverted"
	// EventWarmStart marks the first epoch of a controller whose agent was
	// seeded from a persisted checkpoint instead of a zero table.
	EventWarmStart = "warm_start"
)

// DecisionEvent is one recorded RL decision epoch.
type DecisionEvent struct {
	// Epoch is the controller's local epoch index (1-based).
	Epoch int `json:"epoch"`
	// TimeS is the simulated time at the end of the epoch, seconds.
	TimeS float64 `json:"time_s"`
	// Workload names the running workload (a sequence reports its own name).
	Workload string `json:"workload,omitempty"`
	// State and Action are the Q-table indices used this epoch.
	State  int `json:"state"`
	Action int `json:"action"`
	// Reward is the Eq. 8 value granted for the previous action (NaN on the
	// first epoch, which has no previous action; Record stores it as 0).
	Reward float64 `json:"reward"`
	// Alpha is the learning rate after the epoch.
	Alpha float64 `json:"alpha"`
	// Phase is the agent's learning phase after the epoch (exploration,
	// exploration-exploitation or exploitation).
	Phase string `json:"phase,omitempty"`
	// Explored marks an epoch whose action was picked by exploration rather
	// than greedily.
	Explored bool `json:"explored,omitempty"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// SwitchDetected marks epochs where the variation detector fired
	// (q_reset, snapshot_restore and adopt events).
	SwitchDetected bool `json:"switch_detected,omitempty"`
}

// SpanAttrs renders the event as its epoch span's attributes, in the span's
// fixed key order. The reward is kept as given, so the first epoch's NaN
// reward renders as the string "NaN" (Record stores it as 0).
func (ev DecisionEvent) SpanAttrs() []Attr {
	return []Attr{
		Num("epoch", float64(ev.Epoch)),
		Num("time_s", ev.TimeS),
		Str("workload", ev.Workload),
		Num("state", float64(ev.State)),
		Num("action", float64(ev.Action)),
		Num("reward", ev.Reward),
		Num("alpha", ev.Alpha),
		Str("phase", ev.Phase),
		Bool("explored", ev.Explored),
		Str("event", ev.Kind),
		Bool("switch_detected", ev.SwitchDetected),
	}
}

// DefaultRecorderCapacity bounds a recorder when the caller passes a
// non-positive capacity.
const DefaultRecorderCapacity = 8192

// Recorder is a bounded ring of decision events: once full, new events
// overwrite the oldest, so the newest N survive. It is safe for concurrent
// use — several simulation cells of one job may record into the same
// recorder while an HTTP handler drains it.
type Recorder struct {
	mu   sync.Mutex
	ring Ring[DecisionEvent]
}

// Ring overwrites are surfaced process-wide so /metrics shows when decision
// traces are being truncated (the recorder itself only knows its own drops,
// which die with the job's eviction).
var (
	dropCounterOnce sync.Once
	dropCounter     *Counter
)

func recorderDropCounter() *Counter {
	dropCounterOnce.Do(func() {
		dropCounter = Default().Counter("telemetry_decision_events_dropped_total",
			"Decision events overwritten by recorder ring wraparound, across all recorders.")
	})
	return dropCounter
}

// NewRecorder builds a recorder keeping the newest capacity events
// (DefaultRecorderCapacity when capacity <= 0). Its storage grows with the
// events recorded, so a job recording a few hundred holds a few hundred.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{ring: NewRing[DecisionEvent](capacity)}
}

// Record appends one event, overwriting the oldest when full. NaN rewards
// (no previous action yet) are stored as 0 so the JSONL dump stays valid.
func (r *Recorder) Record(ev DecisionEvent) {
	if math.IsNaN(ev.Reward) {
		ev.Reward = 0
	}
	r.mu.Lock()
	overwrote := r.ring.Push(ev)
	r.mu.Unlock()
	if overwrote {
		recorderDropCounter().Inc()
	}
}

// Total returns how many events were ever recorded, including overwritten
// ones; it only grows, so it doubles as a progress signal for watchdogs.
func (r *Recorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// Since returns the events recorded after the given cursor (a value
// previously returned by Since, or 0 for "from the beginning") plus the new
// cursor. Events that were already overwritten when Since is called are
// skipped — the live stream endpoint trades completeness under extreme lag
// for bounded memory.
func (r *Recorder) Since(cursor int64) ([]DecisionEvent, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Since(cursor)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Len()
}

// Dropped returns how many events were overwritten by wraparound.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []DecisionEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Items()
}

// WriteJSONL writes the retained events as one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, ev := range r.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
