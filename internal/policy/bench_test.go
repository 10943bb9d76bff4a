package policy_test

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/rl"
)

// BenchmarkDecisionEpoch measures the per-epoch decision cost of each
// learner class: the proposed controller's Q-table update cycle (observe,
// sticky select, epoch end), the ReLeTA agent's identical cycle on its
// temperature-centric state space, and the distilled table's single lookup.
// The distilled case is the headline number — its near-zero cost is the
// point of distillation, and a row of cmd/benchjson's gate table (make
// bench-gate) holds it to a ns/op ceiling.
func BenchmarkDecisionEpoch(b *testing.B) {
	benchAgent := func(b *testing.B, states, actions int) {
		b.Helper()
		a := rl.NewAgent(rl.DefaultAgentConfig(states, actions))
		prev := -1
		for i := 0; b.Loop(); i++ {
			s := i % states
			if prev >= 0 {
				a.Observe((i-1)%states, prev, 0.25, s)
			}
			prev = a.SelectActionSticky(s, prev)
			a.EndEpoch()
		}
	}
	b.Run("qtable", func(b *testing.B) {
		benchAgent(b, 12, 12) // the proposed controller's 4x3 state space
	})
	b.Run("releta", func(b *testing.B) {
		benchAgent(b, policy.DefaultReLeTAConfig().NumStates(), 12)
	})
	b.Run("distilled", func(b *testing.B) {
		q := rl.NewQTable(12, 12)
		for s := 0; s < 12; s++ {
			q.Set(s, (s*5)%12, 1)
		}
		tab := policy.DistillQTable(q)
		sink := 0
		for i := 0; b.Loop(); i++ {
			sink += tab.Lookup(i % 12)
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	})
}
