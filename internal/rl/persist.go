package rl

import (
	"encoding/json"
	"fmt"
	"io"
)

// tableJSON is the serialized form of a QTable.
type tableJSON struct {
	States  int       `json:"states"`
	Actions int       `json:"actions"`
	Q       []float64 `json:"q"`
}

// MarshalJSON serializes the table with its dimensions.
func (t *QTable) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{States: t.numStates, Actions: t.numActions, Q: t.q})
}

// UnmarshalJSON restores a table; dimensions come from the payload.
func (t *QTable) UnmarshalJSON(data []byte) error {
	var tj tableJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return fmt.Errorf("rl: unmarshal q-table: %w", err)
	}
	if tj.States <= 0 || tj.Actions <= 0 {
		return fmt.Errorf("rl: unmarshal q-table: invalid dimensions %dx%d", tj.States, tj.Actions)
	}
	// Dividing instead of multiplying: States*Actions can overflow to the
	// length of a short (even empty) value list.
	if len(tj.Q)%tj.Actions != 0 || len(tj.Q)/tj.Actions != tj.States {
		return fmt.Errorf("rl: unmarshal q-table: %d values for %dx%d table", len(tj.Q), tj.States, tj.Actions)
	}
	t.numStates = tj.States
	t.numActions = tj.Actions
	t.q = tj.Q
	return nil
}

// agentJSON is the serialized learning state of an Agent. Kind is the
// policy-kind tag ("" for the historical proposed-controller format), letting
// checkpoint consumers route a payload to the learner that wrote it.
type agentJSON struct {
	Kind      string  `json:"policy_kind,omitempty"`
	Alpha     float64 `json:"alpha"`
	Epochs    int     `json:"epochs"`
	SnapTaken bool    `json:"snapshot_taken"`
	Q         *QTable `json:"q"`
	Snapshot  *QTable `json:"snapshot,omitempty"`
}

// Save serializes the agent's learning state (live Q-table, exploration-end
// snapshot, learning rate, epoch count) as JSON, so a deployment can persist
// what it learned across restarts. The payload carries no policy-kind tag —
// the historical format, which decoders treat as the proposed controller;
// other learners persist through SaveKind.
func (a *Agent) Save(w io.Writer) error {
	return a.SaveKind(w, "")
}

// SaveKind is Save with an explicit policy-kind tag, so every registered
// learner's checkpoints are distinguishable in the checkpoint store. An empty
// kind writes the historical untagged format.
func (a *Agent) SaveKind(w io.Writer, kind string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(agentJSON{
		Kind:      kind,
		Alpha:     a.alpha,
		Epochs:    a.epochs,
		SnapTaken: a.snapTaken,
		Q:         a.q,
		Snapshot:  a.snap,
	})
}

// DimensionError reports a saved table whose state/action dimensions do not
// match the configuration requesting it. It is a typed error so warm-start
// plumbing can reject a mismatched checkpoint up front instead of adopting a
// wrong-shaped table (or failing deep inside controller construction).
type DimensionError struct {
	// GotStates x GotActions are the saved table's dimensions;
	// WantStates x WantActions the requesting configuration's.
	GotStates, GotActions   int
	WantStates, WantActions int
}

func (e *DimensionError) Error() string {
	return fmt.Sprintf("rl: saved table is %dx%d, requesting config wants %dx%d",
		e.GotStates, e.GotActions, e.WantStates, e.WantActions)
}

// SavedAgent is serialized agent state decoded without an Agent to load it
// into: what a checkpoint store or CLI needs to inspect dimensions and pick
// a warm-start table before any controller exists.
type SavedAgent struct {
	// Kind is the policy-kind tag the checkpoint was saved with ("" for the
	// historical proposed-controller format).
	Kind string
	// Alpha and Epochs are the saved learning-rate state.
	Alpha  float64
	Epochs int
	// Q is the live table; Snapshot the exploration-end snapshot (nil when
	// the save happened before exploration ended).
	Q        *QTable
	Snapshot *QTable
}

// ValidateFor rejects the saved state when its table dimensions do not match
// a requesting configuration's state/action space, returning a typed
// *DimensionError so callers can surface the mismatch before any adoption.
func (sa *SavedAgent) ValidateFor(numStates, numActions int) error {
	if sa.Q.numStates != numStates || sa.Q.numActions != numActions {
		return &DimensionError{
			GotStates: sa.Q.numStates, GotActions: sa.Q.numActions,
			WantStates: numStates, WantActions: numActions,
		}
	}
	return nil
}

// DecodeAgent parses agent state previously written by Agent.Save,
// validating dimensions and invariants the same way Load does.
func DecodeAgent(r io.Reader) (*SavedAgent, error) {
	var aj agentJSON
	if err := json.NewDecoder(r).Decode(&aj); err != nil {
		return nil, fmt.Errorf("rl: decode agent: %w", err)
	}
	if aj.Q == nil {
		return nil, fmt.Errorf("rl: decode agent: missing q-table")
	}
	if aj.Alpha < 0 || aj.Alpha > 1 {
		return nil, fmt.Errorf("rl: decode agent: alpha %g out of [0,1]", aj.Alpha)
	}
	if aj.SnapTaken {
		if aj.Snapshot == nil {
			return nil, fmt.Errorf("rl: decode agent: snapshot flagged but missing")
		}
		if aj.Snapshot.numStates != aj.Q.numStates || aj.Snapshot.numActions != aj.Q.numActions {
			return nil, fmt.Errorf("rl: decode agent: snapshot dimension mismatch")
		}
	}
	sa := &SavedAgent{Kind: aj.Kind, Alpha: aj.Alpha, Epochs: aj.Epochs, Q: aj.Q}
	if aj.SnapTaken {
		sa.Snapshot = aj.Snapshot
	}
	return sa, nil
}

// WarmTable returns the table a warm start should adopt: the
// exploration-end snapshot when one was captured (the paper's post-
// exploration policy, the asset intra-application restores depend on),
// otherwise the live table.
func (sa *SavedAgent) WarmTable() *QTable {
	if sa.Snapshot != nil {
		return sa.Snapshot
	}
	return sa.Q
}

// Load restores learning state previously written by Save. The serialized
// Q-table dimensions must match the agent's configuration.
func (a *Agent) Load(r io.Reader) error {
	var aj agentJSON
	if err := json.NewDecoder(r).Decode(&aj); err != nil {
		return fmt.Errorf("rl: load agent: %w", err)
	}
	if aj.Q == nil {
		return fmt.Errorf("rl: load agent: missing q-table")
	}
	if aj.Q.numStates != a.cfg.NumStates || aj.Q.numActions != a.cfg.NumActions {
		return fmt.Errorf("rl: load agent: table is %dx%d, agent configured for %dx%d",
			aj.Q.numStates, aj.Q.numActions, a.cfg.NumStates, a.cfg.NumActions)
	}
	if aj.SnapTaken {
		if aj.Snapshot == nil {
			return fmt.Errorf("rl: load agent: snapshot flagged but missing")
		}
		if aj.Snapshot.numStates != a.cfg.NumStates || aj.Snapshot.numActions != a.cfg.NumActions {
			return fmt.Errorf("rl: load agent: snapshot dimension mismatch")
		}
	}
	if aj.Alpha < 0 || aj.Alpha > 1 {
		return fmt.Errorf("rl: load agent: alpha %g out of [0,1]", aj.Alpha)
	}
	a.q = aj.Q
	a.snap = aj.Snapshot
	a.snapTaken = aj.SnapTaken
	a.alpha = aj.Alpha
	a.epochs = aj.Epochs
	return nil
}
