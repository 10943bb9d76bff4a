package policy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/rl"
)

// Checkpoint is a decoded warm-start payload of any registered kind: Q-agent
// state for the Q-learner kinds, a decision table for distilled checkpoints.
type Checkpoint struct {
	// Kind is the stored policy-kind tag ("" on payloads written by the
	// historical untagged format; NormalizedKind maps it to KindProposed).
	Kind string
	// Agent is the saved Q-learning state (nil for distilled checkpoints).
	Agent *rl.SavedAgent
	// Table is the decision table of a distilled checkpoint (nil otherwise).
	Table *DecisionTable
}

// NormalizedKind resolves the stored kind, mapping the historical untagged
// format to the proposed controller.
func (c *Checkpoint) NormalizedKind() string {
	if c.Kind == "" {
		return KindProposed
	}
	return c.Kind
}

// AgentFor returns the saved agent when the checkpoint belongs to kind,
// validated against the requesting state/action dimensions (a mismatch is a
// typed *rl.DimensionError). A nil checkpoint or one of a foreign kind
// returns (nil, nil): policies ignore checkpoints that are not theirs, the
// way deterministic baselines ignore warm starts.
func (c *Checkpoint) AgentFor(kind string, numStates, numActions int) (*rl.SavedAgent, error) {
	if c == nil || c.Agent == nil || c.NormalizedKind() != kind {
		return nil, nil
	}
	if err := c.Agent.ValidateFor(numStates, numActions); err != nil {
		return nil, err
	}
	return c.Agent, nil
}

// ErrInvalidCheckpoint is wrapped by every error DecodeCheckpoint returns.
var ErrInvalidCheckpoint = errors.New("policy: invalid checkpoint")

// DecodeCheckpoint parses a checkpoint payload of any registered kind. The
// payload's policy_kind tag routes decoding: distilled payloads carry a
// decision table, everything else is rl.Agent state (an empty tag is the
// historical proposed-controller format). Every rejection wraps
// ErrInvalidCheckpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var probe struct {
		Kind string `json:"policy_kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidCheckpoint, err)
	}
	if probe.Kind == KindDistilled {
		t, err := decodeDecisionTable(data)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidCheckpoint, err)
		}
		return &Checkpoint{Kind: KindDistilled, Table: t}, nil
	}
	sa, err := rl.DecodeAgent(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidCheckpoint, err)
	}
	return &Checkpoint{Kind: sa.Kind, Agent: sa}, nil
}
