// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the simulated platform. Each experiment has a
// function returning typed rows plus a Format helper that prints the same
// layout the paper reports, and one entry in the experiment registry
// (registry.go) that plans its cells. The cmd/thermsim binary and the
// repository's benchmarks are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config parameterizes the experiment harness.
type Config struct {
	// Run is the base simulation configuration shared by every run.
	Run sim.RunConfig
	// Quick shrinks sweeps to a representative subset (used by unit tests
	// and smoke runs).
	Quick bool
	// Repeats averages learning-sensitive sweeps (Fig. 7) over this many
	// RL seeds; 0 means the default of 3 (1 in Quick mode).
	Repeats int
	// Seed, when nonzero, overrides the RL agent's base action-selection
	// seed (the package default of 42). The job service derives a distinct
	// per-job seed from the submitted base seed so resubmitting a spec is
	// bit-identical while distinct campaigns decorrelate.
	Seed int64
	// CampaignJSON, when non-empty, is the declarative tournament document
	// (the experiments.json spec) for the campaign planner. It is opaque
	// bytes here so the fixed planner signature func(Config, id) can carry
	// a tournament through every execution path — standalone CLI, pooled
	// submission, journal-recovery replanning and cluster cell dispatch —
	// without this package depending on the campaign engine.
	CampaignJSON []byte
	// Warm, when non-nil, is the decoded warm-start checkpoint every run's
	// policy is built with (policy.Options.Checkpoint): the learner that owns
	// its kind starts from the saved state instead of a zero table, and every
	// other policy ignores it. It is read-only, so concurrent cells share it.
	Warm *policy.Checkpoint
}

// DefaultConfig returns the full-fidelity configuration.
func DefaultConfig() Config {
	return Config{Run: sim.DefaultRunConfig()}
}

// repeats resolves the effective repeat count.
func (c Config) repeats() int {
	if c.Repeats > 0 {
		return c.Repeats
	}
	if c.Quick {
		return 1
	}
	return 3
}

// Policy names of the paper's tables, in the order they list them; the
// policy registry resolves each.
const (
	PolicyLinuxOndemand  = "linux-ondemand"
	PolicyLinuxPowersave = "linux-powersave"
	PolicyLinux24        = "linux-2.4GHz"
	PolicyLinux34        = "linux-3.4GHz"
	PolicyGe             = "ge-qiu"
	PolicyGeModified     = "ge-qiu-modified"
	PolicyThrottle       = "reactive-throttle"
	PolicyProposed       = "proposed"
)

// newPolicy builds the policy for one run from the registry, with the
// config's RL base seed and warm-start checkpoint as its options (the
// deterministic baselines ignore both).
func newPolicy(cfg Config, name string) (sim.Policy, error) {
	return policy.New(name, policy.Options{Seed: cfg.Seed, Checkpoint: cfg.Warm})
}

// agentSeed resolves the base RL seed for runners that construct the
// proposed controller's config by hand (the seed study).
func (c Config) agentSeed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return core.DefaultConfig().Agent.Seed
}

// prepareApp assembles the simulation for one (app, dataset, policy)
// combination without running it.
func prepareApp(cfg Config, appName string, ds workload.DataSet, policy string) (sim.BatchRun, error) {
	app, err := workload.ByName(appName, ds)
	if err != nil {
		return sim.BatchRun{}, err
	}
	pol, err := newPolicy(cfg, policy)
	if err != nil {
		return sim.BatchRun{}, err
	}
	// Row experiments consume only the scalar metrics, so the run streams
	// them instead of retaining the oracle traces.
	rc := cfg.Run
	rc.DiscardTrace = true
	return sim.BatchRun{Cfg: rc, Work: app, Policy: pol}, nil
}

// runApp executes one (app, dataset, policy) combination.
func runApp(cfg Config, appName string, ds workload.DataSet, policy string) (*sim.Result, error) {
	br, err := prepareApp(cfg, appName, ds, policy)
	if err != nil {
		return nil, err
	}
	return sim.Run(br.Cfg, br.Work, br.Policy)
}

// appCell is the single-simulation cell of one (application, data set,
// policy) run; row maps the run's result to the cell's row.
func appCell(cfg Config, key, app string, ds workload.DataSet, policy string, row func(*sim.Result) any) Cell {
	return SimCell(key, func(ctx context.Context) (sim.BatchRun, FinishCell, error) {
		br, err := prepareApp(TracedConfig(ctx, cfg), app, ds, policy)
		finish := func(r *sim.Result) (any, error) { return row(r), nil }
		return br, finish, err
	})
}

// scenarioApps parses "mpegdec-tachyon-mpegenc" into its applications.
func scenarioApps(scenario string, ds workload.DataSet) (*workload.Sequence, error) {
	parts := strings.Split(scenario, "-")
	apps := make([]*workload.Application, 0, len(parts))
	for _, p := range parts {
		app, err := workload.ByName(p, ds)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", scenario, err)
		}
		apps = append(apps, app)
	}
	return workload.NewSequence(apps...), nil
}

// tableWriter builds an aligned text table.
func tableWriter(sb *strings.Builder) *tabwriter.Writer {
	return tabwriter.NewWriter(sb, 0, 4, 2, ' ', 0)
}
