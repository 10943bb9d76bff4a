package rl

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// DefaultConvergenceWindow is the sliding window (in decision epochs) over
// which the greedy policy must stay unchanged for the convergence detector to
// declare the agent converged. The alpha schedule reaches the exploitation
// threshold after ~21 epochs (AgentConfig.EpochsToConverge), so an 8-epoch
// stability window distinguishes "alpha happens to be small" from "the argmax
// policy actually stopped moving".
const DefaultConvergenceWindow = 8

// CurvePoint is one decision epoch on a learning curve. Reward is the Eq. 8
// reward granted this epoch (0 when the epoch had no reward, e.g. the first),
// AbsTD the magnitude of the temporal-difference error of the Eq. 7 update,
// Alpha the learning rate after the epoch (alpha doubles as the epsilon-greedy
// exploration probability in this agent), Coverage the fraction of Q-table
// states visited so far, Stability the fraction of states whose greedy action
// was unchanged from the previous epoch, and Damage the thermal-cycling
// stress closed while this epoch's action was in force (per-core split lives
// in the run summary).
type CurvePoint struct {
	Epoch     int     `json:"epoch"`
	TimeS     float64 `json:"time_s"`
	Reward    float64 `json:"reward"`
	AbsTD     float64 `json:"abs_td"`
	Alpha     float64 `json:"alpha"`
	Coverage  float64 `json:"coverage"`
	Stability float64 `json:"stability"`
	Damage    float64 `json:"damage"`
}

// CurveSummary condenses one sampled run: where (if anywhere) the greedy
// policy converged, how much of the table was explored, and which cores and
// actions absorbed the thermal-cycling damage.
type CurveSummary struct {
	// Epochs is the number of decision epochs sampled.
	Epochs int `json:"epochs"`
	// ConvergeEpoch is the first epoch of the window over which the greedy
	// policy never changed again; -1 if the detector never fired.
	ConvergeEpoch int `json:"converge_epoch"`
	// Coverage is the final state-visit coverage in [0, 1].
	Coverage float64 `json:"coverage"`
	// MeanReward averages the non-NaN epoch rewards.
	MeanReward float64 `json:"mean_reward"`
	// FinalAlpha is the learning rate after the last epoch.
	FinalAlpha float64 `json:"final_alpha"`
	// CoreDamage is the attributed thermal-cycling stress per core (empty
	// when the run carried no attribution feed).
	CoreDamage []float64 `json:"core_damage,omitempty"`
	// CoreDamageShare is CoreDamage normalized to sum to 1 (empty when no
	// damage was attributed).
	CoreDamageShare []float64 `json:"core_damage_share,omitempty"`
	// ActionDamage is the attributed stress per action index.
	ActionDamage []float64 `json:"action_damage,omitempty"`
}

// LearningSampler records a learning curve for one agent across one run: one
// CurvePoint per decision epoch plus a greedy-policy convergence detector and
// a damage-attribution sink. It follows the telemetry.Tracer nil-receiver
// contract — a nil *LearningSampler is a valid, disabled sampler whose
// methods return immediately without allocating, so policies keep a sampler
// field permanently and hot paths pay one nil check when sampling is off.
//
// A sampler is driven from a single policy goroutine; it is not safe for
// concurrent use (the run loop is single-threaded per cell).
type LearningSampler struct {
	window int

	points []CurvePoint

	// Per-epoch accumulators, reset by EndEpoch.
	tdSum         float64
	tdN           int
	pendingDamage float64

	// State-visit coverage over the Q-table.
	visited      []bool
	visitedCount int

	// Greedy-policy stability: argmax_a Q(s, a) per state, this epoch vs
	// the previous one.
	prevGreedy, curGreedy []int
	haveGreedy            bool
	stableSince           int
	haveStable            bool
	convergedEpoch        int

	rewardSum float64
	rewardN   int

	coreDamage   []float64
	actionDamage []float64

	finalized bool
}

// NewLearningSampler returns an enabled sampler. window is the number of
// consecutive epochs the greedy policy must stay unchanged before the
// convergence detector fires; <= 0 selects DefaultConvergenceWindow.
func NewLearningSampler(window int) *LearningSampler {
	if window <= 0 {
		window = DefaultConvergenceWindow
	}
	return &LearningSampler{window: window, convergedEpoch: -1}
}

// ObserveTD records the temporal-difference error of one Eq. 7 (or SARSA)
// update; magnitudes are averaged per epoch.
func (s *LearningSampler) ObserveTD(td float64) {
	if s == nil {
		return
	}
	if !math.IsNaN(td) && !math.IsInf(td, 0) {
		s.tdSum += math.Abs(td)
		s.tdN++
	}
}

// ObserveCycleDamage attributes one closed thermal cycle's stress delta to
// the core it closed on and the action in force when it closed. The damage is
// also folded into the next CurvePoint so the curve shows when cycling
// damage accrued.
func (s *LearningSampler) ObserveCycleDamage(core, action int, damage float64) {
	if s == nil || damage <= 0 {
		return
	}
	s.pendingDamage += damage
	if core >= 0 {
		for len(s.coreDamage) <= core {
			s.coreDamage = append(s.coreDamage, 0)
		}
		s.coreDamage[core] += damage
	}
	if action >= 0 {
		for len(s.actionDamage) <= action {
			s.actionDamage = append(s.actionDamage, 0)
		}
		s.actionDamage[action] += damage
	}
}

// EndEpoch closes one decision epoch: epoch is the policy's 1-based epoch
// counter, timeS the simulated time, reward the Eq. 8 reward granted this
// epoch (NaN on the first epoch, recorded as 0), alpha the learning rate
// after the epoch, state/action the state observed and action applied, and q
// the live Q-table (used for coverage and greedy-stability; may be nil, which
// skips both).
func (s *LearningSampler) EndEpoch(epoch int, timeS, reward, alpha float64, state, action int, q *QTable) {
	if s == nil {
		return
	}
	p := CurvePoint{
		Epoch:  epoch,
		TimeS:  timeS,
		Alpha:  alpha,
		Damage: s.pendingDamage,
	}
	s.pendingDamage = 0
	if !math.IsNaN(reward) {
		p.Reward = reward
		s.rewardSum += reward
		s.rewardN++
	}
	if s.tdN > 0 {
		p.AbsTD = s.tdSum / float64(s.tdN)
	}
	s.tdSum, s.tdN = 0, 0

	if q != nil {
		states := q.NumStates()
		if len(s.visited) != states {
			s.visited = make([]bool, states)
			s.visitedCount = 0
		}
		if state >= 0 && state < states && !s.visited[state] {
			s.visited[state] = true
			s.visitedCount++
		}
		p.Coverage = float64(s.visitedCount) / float64(states)

		if len(s.curGreedy) != states {
			s.curGreedy = make([]int, states)
			s.prevGreedy = make([]int, states)
			s.haveGreedy = false
		}
		for st := 0; st < states; st++ {
			s.curGreedy[st] = q.BestAction(st)
		}
		if s.haveGreedy {
			same := 0
			changed := false
			for st := 0; st < states; st++ {
				if s.curGreedy[st] == s.prevGreedy[st] {
					same++
				} else {
					changed = true
				}
			}
			p.Stability = float64(same) / float64(states)
			if changed {
				s.haveStable = false
			}
		} else {
			// First observation of the greedy policy: it is trivially
			// stable with respect to itself.
			p.Stability = 1
		}
		if !s.haveStable {
			s.stableSince = epoch
			s.haveStable = true
		}
		if s.convergedEpoch < 0 && epoch-s.stableSince+1 >= s.window {
			s.convergedEpoch = s.stableSince
		}
		s.prevGreedy, s.curGreedy = s.curGreedy, s.prevGreedy
		s.haveGreedy = true
	}

	s.points = append(s.points, p)
}

// Points returns the sampled curve (nil for a disabled sampler).
func (s *LearningSampler) Points() []CurvePoint {
	if s == nil {
		return nil
	}
	return s.points
}

// ConvergedEpoch returns the epoch at which the greedy policy became
// permanently stable (per the sliding-window detector), or -1 if the run
// never converged. A nil sampler returns -1.
func (s *LearningSampler) ConvergedEpoch() int {
	if s == nil {
		return -1
	}
	return s.convergedEpoch
}

// Summary condenses the sampled run.
func (s *LearningSampler) Summary() CurveSummary {
	if s == nil {
		return CurveSummary{ConvergeEpoch: -1}
	}
	sum := CurveSummary{
		Epochs:        len(s.points),
		ConvergeEpoch: s.convergedEpoch,
	}
	if len(s.points) > 0 {
		sum.FinalAlpha = s.points[len(s.points)-1].Alpha
		sum.Coverage = s.points[len(s.points)-1].Coverage
	}
	if s.rewardN > 0 {
		sum.MeanReward = s.rewardSum / float64(s.rewardN)
	}
	if len(s.coreDamage) > 0 {
		sum.CoreDamage = append([]float64(nil), s.coreDamage...)
		total := 0.0
		for _, d := range s.coreDamage {
			total += d
		}
		if total > 0 {
			sum.CoreDamageShare = make([]float64, len(s.coreDamage))
			for i, d := range s.coreDamage {
				sum.CoreDamageShare[i] = d / total
			}
		}
	}
	if len(s.actionDamage) > 0 {
		sum.ActionDamage = append([]float64(nil), s.actionDamage...)
	}
	return sum
}

// Finalize marks the run complete and folds it into the process-wide learning
// health counters exported via LearningStats (and the registry metrics fleet
// coordinators federate). Safe to call once per run; a nil sampler no-ops.
func (s *LearningSampler) Finalize() {
	if s == nil || s.finalized {
		return
	}
	s.finalized = true
	initMetrics()
	learningRuns.Add(1)
	mLearningRuns.Inc()
	if s.convergedEpoch >= 0 {
		learningConverged.Add(1)
		learningLastConverge.Store(int64(s.convergedEpoch))
		mLearningConverged.Inc()
		mLearningLastConverge.Set(float64(s.convergedEpoch))
	}
}

// Process-wide learning health, aggregated across every finalized sampler in
// this process. Workers expose these through their registries so cluster
// heartbeats federate fleet-wide learning progress.
var (
	learningRuns         atomic.Int64
	learningConverged    atomic.Int64
	learningLastConverge atomic.Int64
)

// LearningStats reports how many sampled runs this process has finalized, how
// many of them converged, and the converge epoch of the most recent
// convergence (0 if none yet).
func LearningStats() (runs, converged, lastConvergeEpoch int64) {
	return learningRuns.Load(), learningConverged.Load(), learningLastConverge.Load()
}

// RunCurve is one sampled run inside a CurveSet: which policy and workload it
// belongs to, the per-epoch curve, and the condensed summary.
type RunCurve struct {
	Policy   string       `json:"policy"`
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed,omitempty"`
	Repeat   int          `json:"repeat,omitempty"`
	Points   []CurvePoint `json:"points"`
	Summary  CurveSummary `json:"summary"`
}

// CurveSet collects the learning curves of every sampled run in a job. It is
// safe for concurrent Add (cells run on a worker pool); iteration snapshots
// under the lock.
type CurveSet struct {
	mu     sync.Mutex
	curves []RunCurve
}

// NewCurveSet returns an empty set.
func NewCurveSet() *CurveSet { return &CurveSet{} }

// Add appends one finished run's curve.
func (cs *CurveSet) Add(c RunCurve) {
	if cs == nil {
		return
	}
	cs.mu.Lock()
	cs.curves = append(cs.curves, c)
	cs.mu.Unlock()
}

// Curves returns a snapshot sorted by (policy, workload, seed, repeat) so the
// serialized order is independent of cell completion order.
func (cs *CurveSet) Curves() []RunCurve {
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	out := append([]RunCurve(nil), cs.curves...)
	cs.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Policy != out[j].Policy {
			return out[i].Policy < out[j].Policy
		}
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		if out[i].Seed != out[j].Seed {
			return out[i].Seed < out[j].Seed
		}
		return out[i].Repeat < out[j].Repeat
	})
	return out
}

// Len returns how many runs have been recorded.
func (cs *CurveSet) Len() int {
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.curves)
}

// WriteJSONL streams the set as one RunCurve JSON object per line — the
// archive format of the durable learning store and the ?format=jsonl wire
// format of GET /v1/jobs/{id}/learning.
func (cs *CurveSet) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, c := range cs.Curves() {
		if err := enc.Encode(c); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// curveCSVHeader is the per-epoch learning-curve CSV column order
// (thermsim -learning-csv).
var curveCSVHeader = []string{
	"policy", "workload", "seed", "repeat",
	"epoch", "time_s", "reward", "abs_td", "alpha", "coverage", "stability", "damage",
}

// WriteCSV renders every run's per-epoch points as one flat CSV, one row per
// (policy, workload, seed, repeat, epoch). Floats use Go's shortest exact
// representation and runs are sorted by their coordinates, so equal inputs
// produce byte-equal output.
func (cs *CurveSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(curveCSVHeader); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range cs.Curves() {
		for _, p := range c.Points {
			rec := []string{
				c.Policy, c.Workload,
				strconv.FormatInt(c.Seed, 10), strconv.Itoa(c.Repeat),
				strconv.Itoa(p.Epoch), ff(p.TimeS), ff(p.Reward), ff(p.AbsTD),
				ff(p.Alpha), ff(p.Coverage), ff(p.Stability), ff(p.Damage),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// DecodeCurvesJSONL parses a WriteJSONL stream back into a CurveSet.
func DecodeCurvesJSONL(r io.Reader) (*CurveSet, error) {
	cs := NewCurveSet()
	dec := json.NewDecoder(r)
	for i := 0; ; i++ {
		var c RunCurve
		if err := dec.Decode(&c); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("rl: learning archive line %d: %w", i+1, err)
		}
		cs.curves = append(cs.curves, c)
	}
	return cs, nil
}
