// Package policy is the policy zoo: a registry of named, self-describing
// thermal-management policy factories behind the common sim.Policy interface
// (observe -> decide -> learn -> save/restore). The registry holds the
// paper's proposed inter/intra-application RL controller and the repository's
// baselines, plus two related-work learners: a ReLeTA-style agent with a
// temperature-centric state vector and reward (arXiv 1912.00189) and a
// "distilled" policy that runs a compact decision table extracted offline
// from a converged Q-table checkpoint, in the spirit of imitation-learned
// cheap policies (arXiv 2206.05459).
//
// Every factory takes the same Options (RL seed, optional warm-start
// checkpoint), so the campaign engine can instantiate any registered policy
// uniformly; checkpoint payloads carry a policy-kind tag, so warm-start and
// -load-agent route each payload to the learner that wrote it.
package policy

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/sim"
)

// Checkpoint policy kinds. The empty kind on a stored payload is the
// historical untagged format and normalizes to KindProposed.
const (
	KindProposed  = "proposed"
	KindReLeTA    = "releta"
	KindDistilled = "distilled"
)

// Options parameterize one policy instantiation. The zero value builds the
// policy with its package defaults.
type Options struct {
	// Seed, when nonzero, overrides the learner's action-selection seed.
	// Deterministic baselines ignore it.
	Seed int64
	// Checkpoint, when non-nil, warm-starts the learner from persisted
	// state. A checkpoint whose kind does not belong to the policy is
	// ignored (the way baselines ignore warm starts), so one tournament-wide
	// checkpoint can coexist with a mixed policy roster; a matching kind
	// with mismatched table dimensions is a hard *rl.DimensionError.
	Checkpoint *Checkpoint
}

// Factory describes one registered policy.
type Factory struct {
	// Name is the registry key and the policy's result-table name.
	Name string
	// Description is a one-line human summary for listings.
	Description string
	// New builds a fresh instance; policies are stateful, so a new instance
	// is required per run.
	New func(Options) (sim.Policy, error)
	// IgnoresSeed declares that Options.Seed never changes a run: instances
	// built with different seeds (and the same checkpoint) run bit-identical
	// simulations. A tournament runs such a policy once per workload and
	// shares that run among its seeds and repeats, so a factory that starts
	// using the seed must drop the declaration.
	IgnoresSeed bool
}

// Checkpointer is implemented by policies with persistable learning state.
// SaveCheckpoint returns a payload DecodeCheckpoint understands, tagged with
// the policy's kind (the proposed controller writes the historical untagged
// format, which decodes as KindProposed).
type Checkpointer interface {
	SaveCheckpoint() ([]byte, error)
}

// UnknownPolicyError is returned by New for a name with no registered
// factory. It is typed so spec validation can distinguish a bad policy name
// from other failures.
type UnknownPolicyError struct {
	Name string
}

func (e *UnknownPolicyError) Error() string {
	return fmt.Sprintf("policy: unknown policy %q (registered: %v)", e.Name, Names())
}

var registry = map[string]Factory{}

// Register adds a factory to the zoo. Registration happens at init time;
// a duplicate or incomplete factory is a programming error.
func Register(f Factory) {
	if f.Name == "" || f.New == nil {
		panic("policy: Register needs a name and a constructor")
	}
	if _, dup := registry[f.Name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", f.Name))
	}
	registry[f.Name] = f
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	f, ok := registry[name]
	return f, ok
}

// Names returns every registered policy name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New builds a fresh policy instance by name with the given options.
func New(name string, o Options) (sim.Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, &UnknownPolicyError{Name: name}
	}
	return f.New(o)
}

// fixed registers a policy that ignores Options, so the seed changes none
// of its runs.
func fixed(name, desc string, build func() sim.Policy) {
	Register(Factory{Name: name, Description: desc, IgnoresSeed: true, New: func(Options) (sim.Policy, error) {
		return build(), nil
	}})
}

func init() {
	fixed("linux-ondemand", "Linux ondemand cpufreq governor, default kernel scheduling",
		func() sim.Policy { return sim.LinuxPolicy{Kind: governor.Ondemand} })
	fixed("linux-powersave", "Linux powersave governor (lowest frequency)",
		func() sim.Policy { return sim.LinuxPolicy{Kind: governor.Powersave} })
	fixed("linux-2.4GHz", "fixed userspace governor at 2.4 GHz",
		func() sim.Policy { return sim.LinuxPolicy{Kind: governor.Userspace, Level: 2, Label: "linux-2.4GHz"} })
	fixed("linux-3.4GHz", "fixed userspace governor at 3.4 GHz",
		func() sim.Policy { return sim.LinuxPolicy{Kind: governor.Userspace, Level: 4, Label: "linux-3.4GHz"} })
	fixed("ge-qiu", "Ge & Qiu online-learning thermal manager baseline",
		func() sim.Policy { return &sim.GePolicy{} })
	fixed("ge-qiu-modified", "Ge & Qiu variant with explicit application-switch notification",
		func() sim.Policy { return &sim.GePolicy{Modified: true} })
	fixed("reactive-throttle", "reactive threshold throttling (trip/release band)",
		func() sim.Policy { return sim.DefaultThrottlePolicy() })

	Register(Factory{
		Name:        "proposed",
		Description: "the paper's inter/intra-application RL controller (stress x aging state, Eq. 8 reward)",
		New: func(o Options) (sim.Policy, error) {
			pp := &sim.ProposedPolicy{}
			if o.Seed == 0 && o.Checkpoint == nil {
				return pp, nil
			}
			ctl := core.DefaultConfig()
			if o.Seed != 0 {
				ctl.Agent.Seed = o.Seed
			}
			sa, err := o.Checkpoint.AgentFor(KindProposed, ctl.States.NumStates(), len(ctl.Actions))
			if err != nil {
				return nil, err
			}
			if sa != nil {
				ctl.WarmStart = sa.WarmTable()
			}
			pp.Config = &ctl
			return pp, nil
		},
	})

	Register(Factory{
		Name:        "releta",
		Description: "ReLeTA-style Q-learner: temperature-level x trend state, temperature-centric reward (arXiv 1912.00189)",
		New: func(o Options) (sim.Policy, error) {
			r := &ReLeTA{Seed: o.Seed}
			if o.Checkpoint != nil && o.Checkpoint.NormalizedKind() == KindReLeTA {
				r.Warm = o.Checkpoint.Agent
			}
			return r, nil
		},
	})

	Register(Factory{
		Name:        "distilled",
		Description: "frozen decision table distilled from a converged Q-table; near-zero decision-epoch cost (arXiv 2206.05459)",
		New: func(o Options) (sim.Policy, error) {
			d := &Distilled{Seed: o.Seed}
			if o.Checkpoint != nil {
				switch o.Checkpoint.NormalizedKind() {
				case KindDistilled:
					d.Table = o.Checkpoint.Table
				case KindProposed:
					// Offline distillation: the checkpointed teacher's
					// warm-start table collapses to its argmax policy.
					d.Table = DistillQTable(o.Checkpoint.Agent.WarmTable())
				}
			}
			return d, nil
		},
	})
}
