package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
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

// DecisionEvent is one RL decision epoch. A run reports it to its tracer,
// which stores it as the epoch span's attributes (SpanAttrs); DecisionEvents
// reads it back.
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
	// first epoch, which has no previous action; DecisionEvents reads it
	// back as 0).
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
// reward renders as the string "NaN".
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

// DecisionEvents reads the decision events back off spans' epoch spans, in
// span order: the inverse of SpanAttrs, and the one source of a job's
// decision trace. A numeric field that SpanAttrs degraded to its string form
// (NaN or an infinity) reads as 0, so the first epoch's "NaN" reward reads
// as 0 and every event encodes as JSON. Other spans and attributes under
// other keys (a merged cluster trace adds some) are ignored.
func DecisionEvents(spans []Span) []DecisionEvent {
	var out []DecisionEvent
	for i := range spans {
		if spans[i].Kind != KindEpoch {
			continue
		}
		var ev DecisionEvent
		for _, a := range spans[i].Attrs {
			switch a.Key {
			case "epoch":
				ev.Epoch = int(a.Num)
			case "time_s":
				ev.TimeS = a.Num
			case "workload":
				ev.Workload = a.Str
			case "state":
				ev.State = int(a.Num)
			case "action":
				ev.Action = int(a.Num)
			case "reward":
				ev.Reward = a.Num
			case "alpha":
				ev.Alpha = a.Num
			case "phase":
				ev.Phase = a.Str
			case "explored":
				ev.Explored = a.Str == "true"
			case "event":
				ev.Kind = a.Str
			case "switch_detected":
				ev.SwitchDetected = a.Str == "true"
			}
		}
		out = append(out, ev)
	}
	return out
}

// WriteEventsJSONL writes events as one JSON object per line.
func WriteEventsJSONL(w io.Writer, events []DecisionEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
