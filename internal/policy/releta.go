package policy

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rl"
)

// slopeBins is the fixed trend discretization of the ReLeTA state: falling,
// flat, rising.
const slopeBins = 3

// ReLeTAConfig parameterizes the ReLeTA-style learner.
type ReLeTAConfig struct {
	// SamplingIntervalS and EpochSamples shape the decision epoch exactly
	// like the proposed controller's, so decision-epoch counts compare.
	SamplingIntervalS float64
	EpochSamples      int
	// TempMinC/TempMaxC bound the peak-temperature working range; the range
	// is split into PeakBins intervals.
	TempMinC, TempMaxC float64
	PeakBins           int
	// SlopeThresholdC is the per-sample average-temperature slope magnitude
	// separating the flat trend bin from falling/rising.
	SlopeThresholdC float64
	// SlopePenalty weights the rising-trend term of the reward.
	SlopePenalty float64
	// Actions is the (mapping x governor) action space shared with the
	// proposed controller.
	Actions []core.Action
	// Agent configures the Q-learning agent; NumStates/NumActions are
	// filled in at attach.
	Agent rl.AgentConfig
	// DecisionOverheadS is the per-epoch execution stall charged for the
	// manager daemon, matching the proposed controller's cost model.
	DecisionOverheadS float64
}

// DefaultReLeTAConfig returns the tuned ReLeTA-style configuration: 3 s
// sampling, 5-sample epochs, 5 peak-temperature bins x 3 trend bins.
func DefaultReLeTAConfig() ReLeTAConfig {
	actions := core.DefaultActions()
	cfg := ReLeTAConfig{
		SamplingIntervalS: 3.0,
		EpochSamples:      5,
		TempMinC:          40,
		TempMaxC:          90,
		PeakBins:          5,
		SlopeThresholdC:   0.2,
		SlopePenalty:      0.5,
		Actions:           actions,
		DecisionOverheadS: 0.05,
	}
	cfg.Agent = rl.DefaultAgentConfig(cfg.NumStates(), len(actions))
	return cfg
}

// NumStates returns the state-space size (PeakBins x 3 trend bins).
func (c ReLeTAConfig) NumStates() int { return c.PeakBins * slopeBins }

// ReLeTA is a Q-learning thermal manager following the state/reward design
// of ReLeTA (arXiv 1912.00189) adapted to this platform's action space: the
// state is temperature-centric — the chip's peak-temperature level crossed
// with the average-temperature trend — rather than the proposed controller's
// stress x aging reliability state, and the reward directly favors cooler,
// flatter thermal profiles instead of the Eq. 8 reliability shaping. It
// reuses the repository's tabular agent (decaying-alpha phase schedule,
// hysteresis).
type ReLeTA struct {
	// Config overrides DefaultReLeTAConfig when non-nil.
	Config *ReLeTAConfig
	// Seed, when nonzero, overrides the agent's action-selection seed.
	Seed int64
	// Warm, when non-nil, is saved agent state adopted at attach; its table
	// dimensions must match the configured state/action space.
	Warm *rl.SavedAgent

	cfg        ReLeTAConfig
	p          *platform.Platform
	agent      *rl.Agent
	sensorBuf  []float64
	nextSample float64

	samples           int
	peak              float64
	firstAvg, lastAvg float64

	prevState, prevAction int
	havePrev              bool
	rewardSum             float64
	rewardN               int
	epochs                int
	// curve samples one learning-curve point per decision epoch (nil = off).
	curve *rl.LearningSampler
}

// Name returns "releta".
func (*ReLeTA) Name() string { return "releta" }

// Attach builds the agent on the platform, adopting warm state if present.
func (r *ReLeTA) Attach(p *platform.Platform) error {
	cfg := DefaultReLeTAConfig()
	if r.Config != nil {
		cfg = *r.Config
	}
	if len(cfg.Actions) == 0 {
		return fmt.Errorf("policy: releta: empty action space")
	}
	if cfg.PeakBins < 2 || cfg.TempMaxC <= cfg.TempMinC {
		return fmt.Errorf("policy: releta: invalid temperature discretization (%d bins over [%g, %g])",
			cfg.PeakBins, cfg.TempMinC, cfg.TempMaxC)
	}
	cfg.Agent.NumStates = cfg.NumStates()
	cfg.Agent.NumActions = len(cfg.Actions)
	if r.Seed != 0 {
		cfg.Agent.Seed = r.Seed
	}
	r.cfg = cfg
	r.p = p
	r.agent = rl.NewAgent(cfg.Agent)
	if r.Warm != nil {
		if err := r.Warm.ValidateFor(cfg.Agent.NumStates, cfg.Agent.NumActions); err != nil {
			return err
		}
		r.agent.AdoptTable(r.Warm.WarmTable(), cfg.Agent.AlphaExp)
	}
	r.sensorBuf = make([]float64, p.NumCores())
	r.nextSample = cfg.SamplingIntervalS
	r.peak = math.Inf(-1)
	return nil
}

// AttachLearningSampler enables per-epoch learning-curve sampling (nil
// detaches), implementing sim.LearningAttacher. Sampling is
// observation-only and never perturbs the agent's action-selection RNG.
func (r *ReLeTA) AttachLearningSampler(s *rl.LearningSampler) {
	r.curve = s
	r.agent.AttachSampler(s)
}

// CurrentDecision reports the decision epoch currently in force and the
// action it applied (epoch 0 / action -1 before the first decision),
// implementing sim.LearningAttacher for thermal-cycle damage attribution.
func (r *ReLeTA) CurrentDecision() (epoch, action int) {
	if !r.havePrev {
		return 0, -1
	}
	return r.epochs, r.prevAction
}

// Tick samples the sensors at the sampling interval and runs one decision
// epoch whenever EpochSamples have accumulated.
func (r *ReLeTA) Tick(*platform.Platform) {
	if r.p.Now()+1e-9 < r.nextSample {
		return
	}
	r.nextSample += r.cfg.SamplingIntervalS
	temps := r.p.ReadSensors(r.sensorBuf)
	avg := 0.0
	for _, t := range temps {
		if t > r.peak {
			r.peak = t
		}
		avg += t
	}
	avg /= float64(len(temps))
	if r.samples == 0 {
		r.firstAvg = avg
	}
	r.lastAvg = avg
	r.samples++
	if r.samples >= r.cfg.EpochSamples {
		r.endEpoch()
	}
}

func (r *ReLeTA) endEpoch() {
	r.epochs++
	state := r.state()
	prev := -1
	if r.havePrev {
		prev = r.prevAction
	}
	reward := math.NaN()
	if r.havePrev {
		reward = r.reward()
		r.rewardSum += reward
		r.rewardN++
		r.agent.Observe(r.prevState, r.prevAction, reward, state)
	}
	action := r.agent.SelectActionSticky(state, prev)
	if r.cfg.DecisionOverheadS > 0 {
		for i := range r.p.Workload().Threads() {
			r.p.Scheduler().AddStall(i, r.cfg.DecisionOverheadS)
		}
	}
	if err := r.cfg.Actions[action].Apply(r.p); err != nil {
		// The action space is validated at build time; an apply failure
		// indicates a programming error.
		panic(err)
	}
	r.prevState, r.prevAction = state, action
	r.havePrev = true
	r.agent.EndEpoch()
	r.curve.EndEpoch(r.epochs, r.p.Now(), reward, r.agent.Alpha(), state, action, r.agent.Q())

	r.samples = 0
	r.peak = math.Inf(-1)
}

// state encodes (peak-temperature bin, trend bin) into one Q-table index.
func (r *ReLeTA) state() int {
	tN := clamp01((r.peak - r.cfg.TempMinC) / (r.cfg.TempMaxC - r.cfg.TempMinC))
	pb := int(tN * float64(r.cfg.PeakBins))
	if pb >= r.cfg.PeakBins {
		pb = r.cfg.PeakBins - 1
	}
	slope := r.slope()
	sb := 1
	switch {
	case slope < -r.cfg.SlopeThresholdC:
		sb = 0
	case slope > r.cfg.SlopeThresholdC:
		sb = 2
	}
	return sb*r.cfg.PeakBins + pb
}

// slope is the epoch's per-sample average-temperature trend.
func (r *ReLeTA) slope() float64 {
	if r.samples < 2 {
		return 0
	}
	return (r.lastAvg - r.firstAvg) / float64(r.samples-1)
}

// reward is the ReLeTA-style temperature-centric reward: cooler epochs score
// higher (positive below the midpoint of the working range, negative above)
// and a rising thermal trend is penalized.
func (r *ReLeTA) reward() float64 {
	tN := clamp01((r.peak - r.cfg.TempMinC) / (r.cfg.TempMaxC - r.cfg.TempMinC))
	rising := clamp01(r.slope() / (2 * r.cfg.SlopeThresholdC))
	return (1 - 2*tN) - r.cfg.SlopePenalty*rising
}

// RewardStats returns the sum and count of granted rewards this run.
func (r *ReLeTA) RewardStats() (sum float64, count int) { return r.rewardSum, r.rewardN }

// DecisionEpochs returns the number of decision epochs of this run.
func (r *ReLeTA) DecisionEpochs() int { return r.epochs }

// SaveCheckpoint serializes the agent's learning state tagged with the
// releta kind, implementing Checkpointer.
func (r *ReLeTA) SaveCheckpoint() ([]byte, error) {
	if r.agent == nil {
		return nil, fmt.Errorf("policy: releta: no agent attached")
	}
	var buf bytes.Buffer
	if err := r.agent.SaveKind(&buf, KindReLeTA); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
