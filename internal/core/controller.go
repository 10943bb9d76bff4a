package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"

	"repro/internal/platform"
	"repro/internal/reliability"
	"repro/internal/rl"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes the Algorithm 1 controller.
type Config struct {
	// SamplingIntervalS is the temperature sampling interval in seconds
	// (Fig. 6 selects 3 s as the best trade-off).
	SamplingIntervalS float64
	// EpochSamples is the number of samples per decision epoch, so the
	// decision epoch is SamplingIntervalS * EpochSamples seconds. The
	// separation of the two intervals is contribution 2 of the paper.
	EpochSamples int
	// States is the (stress x aging) discretization.
	States StateSpace
	// Actions is the restricted (mapping x governor) action space.
	Actions []Action
	// Agent configures the Q-learning agent; NumStates/NumActions are
	// filled in by New.
	Agent rl.AgentConfig
	// Reward shapes Eq. 8.
	Reward RewardConfig
	// MAWindow is the moving-average window (in epochs) for the workload
	// variation detector of Section 5.4.
	MAWindow int
	// StressLow/StressHigh and AgingLow/AgingHigh are the paper's four
	// moving-average change thresholds (deltaMA^L_s, deltaMA^U_s,
	// deltaMA^L_a, deltaMA^U_a). Stress and aging moving averages are
	// normalized to the state space's working ranges; once the agent has
	// converged the controller latches the averages as a reference
	// signature of the running application and compares the current
	// averages against it. A drift in [low, high) on either quantity is an
	// intra-application variation (restore the exploration-end snapshot,
	// re-reference); a drift at or above the high threshold is an
	// inter-application variation (re-learn from scratch; the reference is
	// re-latched after the new exploration converges). While exploring,
	// detection is off — the agent's own actions cause the variation.
	StressLow, StressHigh float64
	AgingLow, AgingHigh   float64
	// AdaptiveSampling implements the paper's Section 6.4 suggestion that
	// "determination of the sampling interval can be incorporated as part
	// of the learning algorithm itself": at each epoch the controller
	// inspects the lag-1 autocorrelation of its temperature samples and
	// widens the interval when samples are redundant (autocorrelation
	// above AdaptiveHighAC) or narrows it when cycles are being missed
	// (below AdaptiveLowAC), within [AdaptiveMinS, AdaptiveMaxS]. The
	// decision-epoch duration is preserved by re-deriving EpochSamples.
	AdaptiveSampling              bool
	AdaptiveMinS, AdaptiveMaxS    float64
	AdaptiveLowAC, AdaptiveHighAC float64
	// UseSignatureLibrary extends the dual Q-table of Section 5.4 to a
	// small library of learned policies keyed by application thermal
	// signature: on an inter-application variation the outgoing policy is
	// stashed, and if the incoming application's signature matches a
	// stored one, that policy is adopted directly instead of re-learned.
	UseSignatureLibrary bool
	// LibraryTolerance is the per-axis normalized signature distance for a
	// library match; LibraryCapacity bounds the stored policies.
	LibraryTolerance float64
	LibraryCapacity  int
	// UseSARSA switches the learning update from off-policy Q-learning
	// (the paper's algorithm, Eq. 7) to on-policy SARSA, for algorithm
	// comparisons.
	UseSARSA bool
	// DecisionOverheadS is the execution stall charged to every thread at
	// each decision epoch, modeling the manager daemon's CPU time, cpufreq
	// transition latency and affinity-mask system calls. It is what makes
	// small decision epochs cost performance (Fig. 7a).
	DecisionOverheadS float64
	// ConvergeFraction is the fraction of the full Q-table's
	// (state, action) pairs that must be visited before the controller
	// reports convergence — the "iterations needed to fill the table"
	// measure of Fig. 8.
	ConvergeFraction float64
	// Cycling and Aging are the reliability model constants used to turn
	// temperature windows into stress/aging state variables.
	Cycling reliability.CyclingParams
	Aging   reliability.AgingParams
	// WarmStart, when non-nil, seeds the agent from a previously learned
	// Q-table (via rl.Agent.AdoptTable) instead of starting from zeros,
	// so a restarted deployment resumes its accumulated policy. The table
	// dimensions must match the configured state/action space. The adopted
	// table learns at Agent.AlphaExp (moderate re-learning, the same rate an
	// intra-application restore resumes at).
	WarmStart *rl.QTable
}

// DefaultConfig returns the tuned controller configuration: 3 s sampling,
// 30 s decision epochs, 12 states x 12 actions.
func DefaultConfig() Config {
	ss := DefaultStateSpace()
	actions := DefaultActions()
	return Config{
		SamplingIntervalS: 3.0,
		EpochSamples:      5,
		States:            ss,
		Actions:           actions,
		Agent:             rl.DefaultAgentConfig(ss.NumStates(), len(actions)),
		Reward:            DefaultRewardConfig(),
		MAWindow:          3,
		LibraryTolerance:  0.12,
		LibraryCapacity:   8,
		AdaptiveMinS:      1,
		AdaptiveMaxS:      10,
		AdaptiveLowAC:     0.35,
		AdaptiveHighAC:    0.60,
		StressLow:         0.08,
		StressHigh:        0.30,
		AgingLow:          0.06,
		AgingHigh:         0.12,
		DecisionOverheadS: 0.05,
		ConvergeFraction:  0.25,
		Cycling:           reliability.DefaultCyclingParams(),
		Aging:             reliability.DefaultAgingParams(),
	}
}

// EpochRecord captures one decision epoch for diagnostics and experiments.
type EpochRecord struct {
	// Time is the simulated time at the end of the epoch, seconds.
	Time float64
	// Metrics are the epoch's thermal/performance metrics.
	Metrics EpochMetrics
	// State and Action are the Q-table indices used.
	State, Action int
	// Reward is the Eq. 8 value granted for the previous action.
	Reward float64
	// Alpha is the learning rate after this epoch.
	Alpha float64
	// SamplingS is the temperature sampling interval used for this epoch
	// (changes over time under AdaptiveSampling).
	SamplingS float64
	// Event records workload-variation handling: "", "intra" or "inter".
	Event string
}

// Controller is the run-time system of Fig. 2 driving one platform.
type Controller struct {
	cfg   Config
	p     *platform.Platform
	agent *rl.Agent

	rec        [][]float64 // per-core sample windows (TRec)
	sensorBuf  []float64
	nextSample float64
	// samplingS is the live sampling interval (== cfg.SamplingIntervalS
	// unless AdaptiveSampling retunes it).
	samplingS    float64
	epochSamples int
	// acMA smooths the noisy per-window autocorrelation estimate that
	// drives adaptive sampling.
	acMA *trace.MovingAverage

	prevState, prevAction int
	havePrev              bool
	lastWork              float64
	lastEpochStart        float64

	maStress, maAging *trace.MovingAverage
	refMAS, refMAA    float64
	haveRef           bool
	detectCooldown    int
	visited           []bool
	visitedCount      int
	observedStates    map[int]bool
	convergedEpoch    int
	lastFillEpoch     int
	// localEpochs counts decision epochs of THIS run (unlike
	// agent.Epochs(), which survives SaveState/LoadState).
	localEpochs int
	// rewardSum/rewardN accumulate the granted Eq. 8 rewards of this run,
	// so experiment rows can report a mean reward per policy.
	rewardSum float64
	rewardN   int
	// warmStarted marks an agent seeded from a persisted checkpoint, so
	// the first recorded epoch carries the warm_start event kind (the
	// observable proof a resumed deployment kept its policy).
	warmStarted bool
	// library holds learned per-application policies (nil unless
	// UseSignatureLibrary). On an inter-application switch a candidate
	// policy is adopted immediately and verified once the moving averages
	// settle: if the observed signature matches the adopted entry's, the
	// adoption is confirmed (learning frozen); otherwise the controller
	// falls back to a fresh re-learn.
	library                  *signatureLibrary
	verifyCountdown          int
	adoptedSigS, adoptedSigA float64

	history       []EpochRecord
	recordHistory bool
	// report, when set, receives one telemetry.DecisionEvent per epoch (the
	// observable trace of the paper's re-learning behaviour).
	report func(telemetry.DecisionEvent)
	// curve, when attached, samples one learning-curve point per decision
	// epoch (nil receiver disables at a single branch; see rl.LearningSampler).
	curve *rl.LearningSampler
	log   *slog.Logger
}

// New creates a controller attached to a platform. The platform should be
// freshly constructed (the controller assumes it observes all work).
func New(cfg Config, p *platform.Platform) (*Controller, error) {
	if cfg.SamplingIntervalS <= 0 {
		return nil, fmt.Errorf("core: sampling interval must be positive, got %g", cfg.SamplingIntervalS)
	}
	if cfg.EpochSamples < 2 {
		return nil, fmt.Errorf("core: need at least 2 samples per epoch, got %d", cfg.EpochSamples)
	}
	if len(cfg.Actions) == 0 {
		return nil, fmt.Errorf("core: empty action space")
	}
	cfg.Agent.NumStates = cfg.States.NumStates()
	cfg.Agent.NumActions = len(cfg.Actions)
	n := p.NumCores()
	c := &Controller{
		cfg:            cfg,
		p:              p,
		agent:          rl.NewAgent(cfg.Agent),
		rec:            make([][]float64, n),
		sensorBuf:      make([]float64, n),
		nextSample:     cfg.SamplingIntervalS,
		samplingS:      cfg.SamplingIntervalS,
		epochSamples:   cfg.EpochSamples,
		visited:        make([]bool, cfg.Agent.NumStates*cfg.Agent.NumActions),
		observedStates: make(map[int]bool),
		convergedEpoch: -1,
		maStress:       trace.NewMovingAverage(cfg.MAWindow),
		maAging:        trace.NewMovingAverage(cfg.MAWindow),
		acMA:           trace.NewMovingAverage(3),
		log:            telemetry.Component("core"),
	}
	for i := range c.rec {
		c.rec[i] = make([]float64, 0, cfg.EpochSamples)
	}
	if cfg.UseSignatureLibrary {
		c.library = newSignatureLibrary(cfg.LibraryTolerance, cfg.LibraryCapacity)
	}
	if cfg.WarmStart != nil {
		if cfg.WarmStart.NumStates() != cfg.Agent.NumStates || cfg.WarmStart.NumActions() != cfg.Agent.NumActions {
			return nil, fmt.Errorf("core: warm-start table is %dx%d, controller configured for %dx%d",
				cfg.WarmStart.NumStates(), cfg.WarmStart.NumActions(), cfg.Agent.NumStates, cfg.Agent.NumActions)
		}
		c.agent.AdoptTable(cfg.WarmStart, cfg.Agent.AlphaExp)
		c.warmStarted = true
	}
	return c, nil
}

// LibrarySize returns the number of stored per-application policies (0
// unless UseSignatureLibrary is enabled).
func (c *Controller) LibrarySize() int {
	if c.library == nil {
		return 0
	}
	return c.library.size()
}

// Agent exposes the learning agent (phases, alpha, relearn counts).
func (c *Controller) Agent() *rl.Agent { return c.agent }

// controllerState is the serialized envelope of SaveState: the agent's
// learning state plus the controller's own adaptive values (the latched
// workload signature and the adaptive sampling interval).
type controllerState struct {
	Agent        json.RawMessage    `json:"agent"`
	RefStress    float64            `json:"ref_stress"`
	RefAging     float64            `json:"ref_aging"`
	HaveRef      bool               `json:"have_ref"`
	SamplingS    float64            `json:"sampling_s"`
	EpochSamples int                `json:"epoch_samples"`
	Library      []libraryEntryJSON `json:"library,omitempty"`
}

// SaveState persists the learned Q-tables, learning-rate state, workload
// signature and adaptive sampling interval, so a deployment can resume a
// trained controller after a restart.
func (c *Controller) SaveState(w io.Writer) error {
	var agentBuf bytes.Buffer
	if err := c.agent.Save(&agentBuf); err != nil {
		return err
	}
	st := controllerState{
		Agent:        agentBuf.Bytes(),
		RefStress:    c.refMAS,
		RefAging:     c.refMAA,
		HaveRef:      c.haveRef,
		SamplingS:    c.samplingS,
		EpochSamples: c.epochSamples,
	}
	if c.library != nil {
		st.Library = c.library.export()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(st)
}

// LoadState restores state written by SaveState. The controller must be
// configured with the same state/action space sizes.
func (c *Controller) LoadState(r io.Reader) error {
	var st controllerState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: load state: %w", err)
	}
	if err := c.agent.Load(bytes.NewReader(st.Agent)); err != nil {
		return err
	}
	c.refMAS, c.refMAA = st.RefStress, st.RefAging
	c.haveRef = st.HaveRef
	if st.SamplingS > 0 {
		c.samplingS = st.SamplingS
		c.nextSample = c.samplingS
	}
	if st.EpochSamples >= 2 {
		c.epochSamples = st.EpochSamples
	}
	if c.library != nil && len(st.Library) > 0 {
		c.library.restore(st.Library)
	}
	return nil
}

// RecordHistory enables per-epoch record keeping (used by experiments).
func (c *Controller) RecordHistory(on bool) { c.recordHistory = on }

// ReportDecisions passes one decision event per epoch to report (nil stops):
// the observed state, applied action, granted reward, learning phase,
// exploration flag and any variation-detector verdict.
func (c *Controller) ReportDecisions(report func(telemetry.DecisionEvent)) { c.report = report }

// AttachLearningSampler samples a learning-curve point per decision epoch and
// routes the agent's TD errors into s. Attaching is purely observational: the
// sampler never touches the agent's action-selection RNG, so the learned
// policy and every derived row stay bit-identical. Pass nil to detach.
func (c *Controller) AttachLearningSampler(s *rl.LearningSampler) {
	c.curve = s
	c.agent.AttachSampler(s)
}

// CurrentDecision reports the decision epoch currently in force and the
// action it applied (epoch 0 / action -1 before the first decision). Damage
// attribution uses it to pin each closing thermal cycle to the decision that
// was steering the platform at the time.
func (c *Controller) CurrentDecision() (epoch, action int) {
	if !c.havePrev {
		return 0, -1
	}
	return c.localEpochs, c.prevAction
}

// History returns the recorded epochs (empty unless RecordHistory(true)).
func (c *Controller) History() []EpochRecord { return c.history }

// ConvergedEpoch returns the epoch index at which the visited-pair fraction
// first reached ConvergeFraction, or -1 if not yet.
func (c *Controller) ConvergedEpoch() int { return c.convergedEpoch }

// LastFillEpoch returns the epoch at which the agent last discovered a new
// (state, action) pair — the point where the Q-table stopped filling, the
// paper's Fig. 8 notion of training iterations.
func (c *Controller) LastFillEpoch() int { return c.lastFillEpoch }

// RewardStats returns the sum and count of Eq. 8 rewards granted during this
// run, for aggregate per-policy reward reporting.
func (c *Controller) RewardStats() (sum float64, count int) { return c.rewardSum, c.rewardN }

// DecisionEpochs returns the number of decision epochs of THIS run.
func (c *Controller) DecisionEpochs() int { return c.localEpochs }

// EpochSeconds returns the decision epoch length in seconds.
func (c *Controller) EpochSeconds() float64 {
	return c.cfg.SamplingIntervalS * float64(c.cfg.EpochSamples)
}

// SamplingInterval returns the live temperature sampling interval, which
// AdaptiveSampling retunes at run time.
func (c *Controller) SamplingInterval() float64 { return c.samplingS }

// Tick drives the controller; call it once after every platform step. It
// samples the sensors at the sampling interval and runs the Algorithm 1
// epoch body whenever TRec fills.
func (c *Controller) Tick() {
	if c.p.Now()+1e-9 < c.nextSample {
		return
	}
	c.nextSample += c.samplingS
	temps := c.p.ReadSensors(c.sensorBuf)
	for i := range c.rec {
		c.rec[i] = append(c.rec[i], temps[i])
	}
	if len(c.rec[0]) >= c.epochSamples {
		c.endEpoch()
	}
}

// endEpoch is the body of Algorithm 1 once |TRec| == DecisionEpoch.
func (c *Controller) endEpoch() {
	c.localEpochs++
	now := c.p.Now()
	windowS := now - c.lastEpochStart
	work := c.p.Workload().CompletedWork()
	m := ComputeEpochMetrics(c.rec, c.samplingS, work-c.lastWork, windowS, c.cfg.Cycling, c.cfg.Aging)
	c.lastWork = work
	c.lastEpochStart = now

	// Workload-variation detection on moving averages (Section 5.4). The
	// averages are tracked in normalized units so the thresholds are
	// comparable across quantities; once converged they are latched as the
	// running application's thermal signature and drift is measured
	// against that reference.
	mas := c.maStress.Push(clamp01(m.Stress / c.cfg.States.StressMax))
	maa := c.maAging.Push(clamp01((m.Aging - c.cfg.States.AgingMin) / (c.cfg.States.AgingMax - c.cfg.States.AgingMin)))
	event := ""
	switch {
	case c.localEpochs < c.cfg.MAWindow+3:
		// The chip's initial heat-up ramp is not a workload variation:
		// neither latch a reference nor compare against one until the
		// moving averages are full and the platform has warmed up.
	case !c.haveRef:
		if c.agent.Converged() && c.maAging.Count() >= c.cfg.MAWindow {
			c.refMAS, c.refMAA = mas, maa
			c.haveRef = true
		}
	case c.detectCooldown > 0:
		c.detectCooldown--
	default:
		ds := math.Abs(mas - c.refMAS)
		da := math.Abs(maa - c.refMAA)
		switch {
		case ds >= c.cfg.StressHigh || da >= c.cfg.AgingHigh:
			// Inter-application variation. With the signature library, the
			// outgoing policy is stashed and a candidate for the incoming
			// application adopted tentatively (verified below once the
			// averages settle); otherwise learning restarts from scratch.
			// The reference is re-latched once learning converges.
			event = "inter"
			c.haveRef = false
			if c.library != nil {
				c.library.store(c.refMAS, c.refMAA, c.agent.Q())
				if q, sigS, sigA := c.library.lookupWithin(mas, maa, 3*c.cfg.LibraryTolerance); q != nil {
					c.agent.AdoptTable(q, c.cfg.Agent.AlphaExp)
					c.adoptedSigS, c.adoptedSigA = sigS, sigA
					c.verifyCountdown = 2 * c.cfg.MAWindow
					event = "adopt"
					break
				}
			}
			c.agent.Relearn()
		case ds >= c.cfg.StressLow || da >= c.cfg.AgingLow:
			// Intra-application variation: resume from the exploration-end
			// snapshot. The reference signature is kept, so a drift that
			// keeps growing escalates to an inter-application re-learn
			// after the cooldown.
			c.agent.RestoreSnapshot()
			c.detectCooldown = c.cfg.MAWindow
			event = "intra"
		}
	}

	// Verify a tentative adoption: once the averages settle, confirm when
	// the observed signature matches the adopted entry's (freeze learning)
	// or revert to a fresh re-learn.
	if c.library != nil && c.verifyCountdown > 0 && event == "" {
		c.verifyCountdown--
		if c.verifyCountdown == 0 {
			if math.Abs(mas-c.adoptedSigS) <= c.cfg.LibraryTolerance &&
				math.Abs(maa-c.adoptedSigA) <= c.cfg.LibraryTolerance {
				c.agent.SetAlpha(c.cfg.Agent.ExploitThreshold)
				event = "adopt-confirmed"
			} else {
				c.agent.Relearn()
				event = "adopt-reverted"
			}
		}
	}

	// A checkpoint-seeded agent flags its first epoch, making the adopted
	// policy observable in the decision trace.
	if c.warmStarted && c.localEpochs == 1 && event == "" {
		event = "warm-start"
	}

	// Identify the state and grant the reward for the previous action.
	// Q-learning follows Algorithm 1's order (update the table, then select
	// greedily from the fresh values); SARSA must select first because its
	// update bootstraps from the action actually chosen.
	state := c.cfg.States.State(c.cfg.States.StressBin(m.Stress), c.cfg.States.AgingBin(m.Aging))
	prev := -1
	if c.havePrev {
		prev = c.prevAction
	}
	reward := math.NaN()
	if c.havePrev {
		reward = c.cfg.Reward.Reward(m, c.cfg.States, c.p.Workload().PerfTarget())
		c.rewardSum += reward
		c.rewardN++
		if !c.cfg.UseSARSA {
			c.agent.Observe(c.prevState, c.prevAction, reward, state)
		}
	}
	action := c.agent.SelectActionSticky(state, prev)
	if c.havePrev && c.cfg.UseSARSA {
		c.agent.ObserveSARSA(c.prevState, c.prevAction, reward, state, action)
	}
	if c.cfg.DecisionOverheadS > 0 {
		for i := range c.p.Workload().Threads() {
			c.p.Scheduler().AddStall(i, c.cfg.DecisionOverheadS)
		}
	}
	if err := c.cfg.Actions[action].Apply(c.p); err != nil {
		// The action space is validated against the platform at build time;
		// an apply failure indicates a programming error.
		panic(err)
	}
	c.trackVisit(state, action)
	c.prevState, c.prevAction = state, action
	c.havePrev = true
	c.agent.EndEpoch()
	c.curve.EndEpoch(c.localEpochs, now, reward, c.agent.Alpha(), state, action, c.agent.Q())

	if c.recordHistory {
		c.history = append(c.history, EpochRecord{
			Time:      now,
			Metrics:   m,
			State:     state,
			Action:    action,
			Reward:    reward,
			Alpha:     c.agent.Alpha(),
			SamplingS: c.samplingS,
			Event:     event,
		})
	}
	if c.report != nil {
		kind, switched := eventKind(event)
		c.report(telemetry.DecisionEvent{
			Epoch:          c.localEpochs,
			TimeS:          now,
			Workload:       c.p.Workload().Name(),
			State:          state,
			Action:         action,
			Reward:         reward,
			Alpha:          c.agent.Alpha(),
			Phase:          c.agent.Phase().String(),
			Explored:       c.agent.LastSelectionExplored(),
			Kind:           kind,
			SwitchDetected: switched,
		})
	}
	if c.log.Enabled(context.Background(), slog.LevelDebug) {
		c.log.Debug("epoch",
			"epoch", c.localEpochs, "t", now, "workload", c.p.Workload().Name(),
			"state", state, "action", action, "reward", reward,
			"alpha", c.agent.Alpha(), "phase", c.agent.Phase().String(), "event", event)
	}

	if c.cfg.AdaptiveSampling {
		c.retuneSampling()
	}

	// Reset TRec for the next epoch.
	for i := range c.rec {
		c.rec[i] = c.rec[i][:0]
	}
}

// retuneSampling adjusts the sampling interval from the lag-1
// autocorrelation of the epoch's samples (Section 6.4's future-work
// suggestion): highly redundant samples waste monitoring overhead, while
// decorrelated samples mean cycles are being missed.
func (c *Controller) retuneSampling() {
	ac := c.acMA.Push(trace.Autocorrelation(c.rec[0], 1))
	if c.acMA.Count() < 3 {
		return // not enough epochs for a stable estimate yet
	}
	epochS := c.samplingS * float64(c.epochSamples)
	switch {
	case ac > c.cfg.AdaptiveHighAC && c.samplingS < c.cfg.AdaptiveMaxS:
		c.samplingS = math.Min(c.samplingS*1.5, c.cfg.AdaptiveMaxS)
	case ac < c.cfg.AdaptiveLowAC && c.samplingS > c.cfg.AdaptiveMinS:
		c.samplingS = math.Max(c.samplingS/1.5, c.cfg.AdaptiveMinS)
	default:
		return
	}
	c.acMA.Reset() // re-measure at the new interval before moving again
	// Preserve the decision-epoch duration.
	c.epochSamples = int(math.Max(2, math.Round(epochS/c.samplingS)))
}

// eventKind maps the controller's internal variation-event strings onto the
// telemetry event vocabulary, flagging the epochs where the workload
// variation detector fired.
func eventKind(event string) (kind string, switchDetected bool) {
	switch event {
	case "inter":
		return telemetry.EventQReset, true
	case "intra":
		return telemetry.EventSnapshotRestore, true
	case "adopt":
		return telemetry.EventAdopt, true
	case "adopt-confirmed":
		return telemetry.EventAdoptConfirmed, false
	case "adopt-reverted":
		return telemetry.EventAdoptReverted, false
	case "warm-start":
		return telemetry.EventWarmStart, false
	default:
		return telemetry.EventDecision, false
	}
}

func (c *Controller) trackVisit(state, action int) {
	c.observedStates[state] = true
	idx := state*c.cfg.Agent.NumActions + action
	if !c.visited[idx] {
		c.visited[idx] = true
		c.visitedCount++
		c.lastFillEpoch = c.agent.Epochs() + 1
	}
	if c.convergedEpoch < 0 {
		total := c.cfg.Agent.NumStates * c.cfg.Agent.NumActions
		if float64(c.visitedCount) >= c.cfg.ConvergeFraction*float64(total) {
			c.convergedEpoch = c.agent.Epochs() + 1
		}
	}
}

// PolicyTable renders the current greedy policy: for every state of the
// discretization, the action with the highest Q value, plus the Q values of
// the visited entries. Intended for debugging and for inspecting what the
// controller learned.
func (c *Controller) PolicyTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "policy after %d epochs (alpha %.3f, phase %v)\n",
		c.agent.Epochs(), c.agent.Alpha(), c.agent.Phase())
	ss := c.cfg.States
	for aBin := 0; aBin < ss.AgingBins; aBin++ {
		for sBin := 0; sBin < ss.StressBins; sBin++ {
			state := ss.State(sBin, aBin)
			best := c.agent.Q().BestAction(state)
			mark := " "
			if ss.Unsafe(sBin, aBin) {
				mark = "!"
			}
			visited := ""
			if c.observedStates[state] {
				visited = " (visited)"
			}
			fmt.Fprintf(&sb, "%sstate %2d [stress bin %d, aging bin %d]: %-28s Q=%+.3f%s\n",
				mark, state, sBin, aBin, c.cfg.Actions[best].String(),
				c.agent.Q().Get(state, best), visited)
		}
	}
	return sb.String()
}
