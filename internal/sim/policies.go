package sim

import (
	"bytes"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/governor"
	"repro/internal/platform"
	"repro/internal/rl"
	"repro/internal/telemetry"
)

// LinuxPolicy runs the platform under a plain cpufreq governor with default
// kernel scheduling — the "Linux" rows of the paper's tables.
type LinuxPolicy struct {
	// Kind is the governor; Level is the fixed level for userspace.
	Kind  governor.Kind
	Level int
	// Label overrides the derived name (optional).
	Label string
}

// Name returns e.g. "linux-ondemand" or "linux-userspace[2]".
func (l LinuxPolicy) Name() string {
	if l.Label != "" {
		return l.Label
	}
	if l.Kind == governor.Userspace {
		return fmt.Sprintf("linux-userspace[%d]", l.Level)
	}
	return "linux-" + l.Kind.String()
}

// Attach installs the governor on every core.
func (l LinuxPolicy) Attach(p *platform.Platform) error {
	p.SetGovernorAll(l.Kind, l.Level)
	return nil
}

// Tick is a no-op: Linux has no thermal manager beyond the governor.
func (LinuxPolicy) Tick(*platform.Platform) {}

// GePolicy wraps the Ge & Qiu [7] baseline controller.
type GePolicy struct {
	// Config for the controller; zero value means baseline.DefaultConfig.
	Config *baseline.Config
	// Modified selects the explicit-switch variant of Section 6.2.
	Modified bool

	ctl *baseline.Controller
}

// Name returns "ge-qiu" or "ge-qiu-modified".
func (g *GePolicy) Name() string {
	if g.Modified {
		return "ge-qiu-modified"
	}
	return "ge-qiu"
}

// Attach constructs the controller on the platform.
func (g *GePolicy) Attach(p *platform.Platform) error {
	cfg := baseline.DefaultConfig()
	if g.Config != nil {
		cfg = *g.Config
	}
	cfg.ExplicitSwitch = g.Modified
	ctl, err := baseline.New(cfg, p)
	if err != nil {
		return err
	}
	g.ctl = ctl
	return nil
}

// Tick drives the controller.
func (g *GePolicy) Tick(*platform.Platform) { g.ctl.Tick() }

// Controller exposes the attached controller (nil before Attach).
func (g *GePolicy) Controller() *baseline.Controller { return g.ctl }

// ProposedPolicy wraps the paper's RL controller (internal/core).
type ProposedPolicy struct {
	// Config for the controller; zero value means core.DefaultConfig.
	Config *core.Config
	// History enables per-epoch recording on the controller.
	History bool

	ctl *core.Controller
}

// Name returns "proposed".
func (*ProposedPolicy) Name() string { return "proposed" }

// Attach constructs the controller on the platform.
func (pp *ProposedPolicy) Attach(p *platform.Platform) error {
	cfg := core.DefaultConfig()
	if pp.Config != nil {
		cfg = *pp.Config
	}
	ctl, err := core.New(cfg, p)
	if err != nil {
		return err
	}
	ctl.RecordHistory(pp.History)
	pp.ctl = ctl
	return nil
}

// ReportDecisions passes the controller's per-epoch decision events to
// report, implementing DecisionReporter.
func (pp *ProposedPolicy) ReportDecisions(report func(telemetry.DecisionEvent)) {
	pp.ctl.ReportDecisions(report)
}

// AttachLearningSampler enables per-epoch learning-curve sampling on the
// controller, implementing LearningAttacher.
func (pp *ProposedPolicy) AttachLearningSampler(s *rl.LearningSampler) {
	pp.ctl.AttachLearningSampler(s)
}

// CurrentDecision forwards the controller's live decision (epoch, action),
// implementing LearningAttacher.
func (pp *ProposedPolicy) CurrentDecision() (epoch, action int) {
	return pp.ctl.CurrentDecision()
}

// Tick drives the controller.
func (pp *ProposedPolicy) Tick(*platform.Platform) { pp.ctl.Tick() }

// Controller exposes the attached controller (nil before Attach).
func (pp *ProposedPolicy) Controller() *core.Controller { return pp.ctl }

// SaveCheckpoint serializes the controller's agent in rl.Agent.Save's
// untagged format, which checkpoint decoding reads as the proposed kind
// (implementing policy.Checkpointer).
func (pp *ProposedPolicy) SaveCheckpoint() ([]byte, error) {
	if pp.ctl == nil {
		return nil, fmt.Errorf("sim: proposed: no controller attached")
	}
	var buf bytes.Buffer
	if err := pp.ctl.Agent().Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RewardStats forwards the controller's accumulated reward sum and count,
// for per-policy reward aggregation in tournaments.
func (pp *ProposedPolicy) RewardStats() (sum float64, count int) {
	if pp.ctl == nil {
		return 0, 0
	}
	return pp.ctl.RewardStats()
}

// DecisionEpochs forwards the controller's decision-epoch count for this run.
func (pp *ProposedPolicy) DecisionEpochs() int {
	if pp.ctl == nil {
		return 0
	}
	return pp.ctl.DecisionEpochs()
}
