package policy_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/rl"
)

// FuzzDecodeCheckpoint holds DecodeCheckpoint to its contract on arbitrary
// payloads: it never panics; every rejection wraps ErrInvalidCheckpoint; an
// accepted Q-table holds exactly states × actions values, and one whose
// dimensions differ from the controller's is refused by AgentFor with a
// typed *rl.DimensionError; and an accepted checkpoint re-encoded by its
// kind's encoder decodes to the same value. The seed corpus in
// testdata/fuzz/FuzzDecodeCheckpoint holds proposed, releta and distilled
// checkpoints, the historical untagged format, a table of the wrong
// dimensions, one of the wrong length, and tables whose states × actions
// overflows.
func FuzzDecodeCheckpoint(f *testing.F) {
	ctl := core.DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := policy.DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, policy.ErrInvalidCheckpoint) {
				t.Fatalf("rejection %q (%T) does not wrap ErrInvalidCheckpoint", err, err)
			}
			return
		}
		var again []byte
		if ck.Table != nil {
			if again, err = policy.EncodeDistilled(ck.Table); err != nil {
				t.Fatalf("accepted decision table does not encode: %v", err)
			}
		} else {
			for _, q := range []*rl.QTable{ck.Agent.Q, ck.Agent.Snapshot} {
				checkTableLength(t, q)
			}
			if _, err := ck.AgentFor(ck.NormalizedKind(), ctl.States.NumStates(), len(ctl.Actions)); err != nil {
				var de *rl.DimensionError
				if !errors.As(err, &de) {
					t.Fatalf("AgentFor refused an accepted checkpoint with %q (%T), want *rl.DimensionError", err, err)
				}
			}
			// Re-encode through the agent the payload loads into.
			a := rl.NewAgent(rl.AgentConfig{NumStates: ck.Agent.Q.NumStates(), NumActions: ck.Agent.Q.NumActions()})
			if err := a.Load(bytes.NewReader(data)); err != nil {
				t.Fatalf("accepted checkpoint does not load into an agent of its dimensions: %v", err)
			}
			var buf bytes.Buffer
			if err := a.SaveKind(&buf, ck.Kind); err != nil {
				t.Fatal(err)
			}
			again = buf.Bytes()
		}
		back, err := policy.DecodeCheckpoint(again)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatalf("re-encoded checkpoint decodes to %+v, want %+v", back, ck)
		}
	})
}

// checkTableLength fails t unless q (when present) holds exactly
// states × actions values, checked without multiplying.
func checkTableLength(t *testing.T, q *rl.QTable) {
	t.Helper()
	if q == nil {
		return
	}
	raw, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var tj struct {
		States, Actions int
		Q               []float64
	}
	if err := json.Unmarshal(raw, &tj); err != nil {
		t.Fatal(err)
	}
	if n := len(tj.Q); n%tj.Actions != 0 || n/tj.Actions != tj.States {
		t.Fatalf("accepted a %dx%d table holding %d values", tj.States, tj.Actions, n)
	}
}
