package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Row is one completed tournament run: the cell's coordinates plus the
// scalar metrics the leaderboard aggregates. Rows serialize losslessly
// through the durable journal and the cluster completion payload (Go's
// shortest-form float64 JSON encoding round-trips exactly), which is what
// makes standalone and sharded tournaments bit-identical.
type Row struct {
	Policy   string `json:"policy"`
	Workload string `json:"workload"`
	// Seed is the spec-level base seed of the cell; Repeat its repeat index.
	Seed   int64 `json:"seed"`
	Repeat int   `json:"repeat"`
	// ExecTimeS is simulated execution time — no wall-clock values appear
	// in rows, by design.
	ExecTimeS    float64 `json:"exec_time_s"`
	AvgTempC     float64 `json:"avg_temp_c"`
	PeakTempC    float64 `json:"peak_temp_c"`
	CyclingMTTF  float64 `json:"cycling_mttf_y"`
	AgingMTTF    float64 `json:"aging_mttf_y"`
	CombinedMTTF float64 `json:"combined_mttf_y"`
	// MeanReward is the run's mean granted reward (0 for policies without
	// a reward signal); DecisionEpochs the learner's decision-epoch count.
	MeanReward     float64 `json:"mean_reward"`
	DecisionEpochs int     `json:"decision_epochs"`
	// ConvergeEpoch is the learning-curve convergence verdict: the 1-based
	// decision epoch at which the greedy policy became permanently stable
	// (per the sliding-window detector), -1 when the sampled learner never
	// converged, and 0 for policies with no learning curve to sample.
	ConvergeEpoch int `json:"converge_epoch"`
	// CoreDamageShare is the per-core share of the run's thermal-cycling
	// damage (Eq. 6 stress), summing to 1 — or all zeros when the run
	// closed no plastic cycles.
	CoreDamageShare []float64 `json:"core_damage_share,omitempty"`
}

// Cells is a drop-in planner for the job subsystem (it matches the pool's
// Planner signature): tournament jobs expand from the campaign document
// carried on cfg.CampaignJSON, every other experiment delegates to
// experiments.Cells. Installing it on the pool — and using it in the cluster
// worker's executor — is all it takes for the same spec to run standalone,
// pooled, or sharded. DecodeCellRow is its counterpart for cell rows.
//
// A tournament plans one cell per (policy, workload, seed, repeat). The
// cells of a policy whose factory declares IgnoresSeed differ only in their
// seed and repeat, so every later cell of such a (policy, workload) pair
// shares the first one's run (experiments.Cell.Shares): its row is that
// run's row restamped with its own seed and repeat.
func Cells(cfg experiments.Config, id string) ([]experiments.Cell, experiments.Assemble, error) {
	if id != Experiment {
		return experiments.Cells(cfg, id)
	}
	spec, err := ParseSpec(cfg.CampaignJSON)
	if err != nil {
		return nil, nil, err
	}
	plan := spec.plan()
	cells := make([]experiments.Cell, len(plan))
	firstRun := map[string]int{} // "policy/workload" -> index of its first cell
	for i, c := range plan {
		key := fmt.Sprintf("tournament/%s/%s/s%d/r%d", c.Policy, c.Workload, c.Seed, c.Repeat)
		cells[i] = experiments.SimCell(key, func(ctx context.Context) (sim.BatchRun, experiments.FinishCell, error) {
			return prepareCell(experiments.TracedConfig(ctx, cfg), spec, c)
		})
		if f, _ := policy.Lookup(c.Policy); !f.IgnoresSeed {
			continue
		}
		pair := c.Policy + "/" + c.Workload
		if first, ok := firstRun[pair]; ok {
			cells[i].Shares = &experiments.SharedRun{Cell: first, Row: c.restamp}
		} else {
			firstRun[pair] = i
		}
	}
	return cells, experiments.AssembleAs[Row], nil
}

// restamp maps the row of a run this cell shares to the cell's own row: a
// copy carrying the cell's seed and repeat.
func (c cellPlan) restamp(row any) any {
	r := row.(Row)
	r.Seed, r.Repeat = c.Seed, c.Repeat
	r.CoreDamageShare = slices.Clone(r.CoreDamageShare)
	return r
}

// DecodeCellRow rebuilds one cell's typed row of experiment id from its JSON
// serialization, the counterpart of Cells: a tournament cell decodes into a
// Row, every other experiment through experiments.DecodeCellRow. Journal
// recovery and the cluster coordinator both decode through it.
func DecodeCellRow(id string, data []byte) (any, error) {
	if id != Experiment {
		return experiments.DecodeCellRow(id, data)
	}
	var r Row
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("campaign: decode row: %w", err)
	}
	return r, nil
}

// prepareCell splits one tournament cell into its simulation and row mapper:
// instantiate the registered policy with the cell's derived seed (and the
// resolved warm-start checkpoint, if its kind belongs to the policy), arm
// learning-curve sampling, and return the row collector.
func prepareCell(cfg experiments.Config, spec *Spec, c cellPlan) (sim.BatchRun, experiments.FinishCell, error) {
	pol, err := policy.New(c.Policy, policy.Options{Seed: c.agentSeed(), Checkpoint: cfg.Warm})
	if err != nil {
		return sim.BatchRun{}, nil, err
	}
	work, err := parseWorkload(c.Workload, spec.dataSet())
	if err != nil {
		return sim.BatchRun{}, nil, err
	}
	rc := cfg.Run
	rc.DiscardTrace = true
	// Tournament cells always sample the learning curve: sampling is
	// observation-only (it never touches a policy's action-selection RNG),
	// so rows stay bit-identical with and without it across standalone,
	// pooled and sharded execution — while every row gains the
	// convergence verdict and per-core damage attribution. The caller's
	// observer receives the curve stamped with the cell's coordinates.
	var curve *rl.RunCurve
	rc.LearningObserver = func(sampled rl.RunCurve, p sim.Policy) {
		sampled.Policy, sampled.Workload, sampled.Seed, sampled.Repeat = c.Policy, c.Workload, c.Seed, c.Repeat
		curve = &sampled
		if observe := cfg.Run.LearningObserver; observe != nil {
			observe(sampled, p)
		}
	}
	finish := func(res *sim.Result) (any, error) {
		row := Row{
			Policy: c.Policy, Workload: c.Workload, Seed: c.Seed, Repeat: c.Repeat,
			ExecTimeS: res.ExecTimeS, AvgTempC: res.AvgTempC, PeakTempC: res.PeakTempC,
			CyclingMTTF: res.CyclingMTTF, AgingMTTF: res.AgingMTTF, CombinedMTTF: res.CombinedMTTF,
			CoreDamageShare: res.CoreDamageShare,
		}
		if rs, ok := pol.(interface{ RewardStats() (float64, int) }); ok {
			if sum, n := rs.RewardStats(); n > 0 {
				row.MeanReward = sum / float64(n)
			}
		}
		if ec, ok := pol.(interface{ DecisionEpochs() int }); ok {
			row.DecisionEpochs = ec.DecisionEpochs()
		}
		if curve != nil {
			row.ConvergeEpoch = curve.Summary.ConvergeEpoch // -1 when never converged
		}
		return row, nil
	}
	return sim.BatchRun{Cfg: rc, Work: work, Policy: pol}, finish, nil
}

// checkWorkload resolves a spec workload name, a single application or a
// "-"-joined application sequence, without generating any application.
func checkWorkload(name string, ds workload.DataSet) error {
	for _, p := range strings.Split(name, "-") {
		if _, err := workload.SpecByName(p, ds); err != nil {
			return &UnknownWorkloadError{Workload: name, Err: err}
		}
	}
	return nil
}

// parseWorkload generates a spec workload, a single application or a
// "-"-joined application sequence, for a cell about to run it.
func parseWorkload(name string, ds workload.DataSet) (workload.Workload, error) {
	if err := checkWorkload(name, ds); err != nil {
		return nil, err
	}
	parts := strings.Split(name, "-")
	apps := make([]*workload.Application, len(parts))
	for i, p := range parts {
		apps[i], _ = workload.ByName(p, ds) // resolved by checkWorkload
	}
	if len(apps) == 1 {
		return apps[0], nil
	}
	return workload.NewSequence(apps...), nil
}

// ApplyWarmPayload decodes a resolved warm-start checkpoint payload once and
// sets it as the experiment config's cfg.Warm, which every cell's policy is
// built with. A proposed-kind payload (including the historical untagged
// format) is dimension-validated against the default controller; any other
// kind is rejected for non-tournament experiments, where no policy could
// consume it. The job service and the cluster worker share this helper so
// their warm-start semantics cannot drift.
func ApplyWarmPayload(cfg *experiments.Config, experiment string, payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	ck, err := policy.DecodeCheckpoint(payload)
	if err != nil {
		return err
	}
	dflt := core.DefaultConfig()
	sa, err := ck.AgentFor(policy.KindProposed, dflt.States.NumStates(), len(dflt.Actions))
	if err != nil {
		return err
	}
	if sa == nil && experiment != Experiment {
		return fmt.Errorf("campaign: checkpoint kind %q cannot warm-start experiment %q (only a tournament routes it to the policy that owns it)",
			ck.NormalizedKind(), experiment)
	}
	cfg.Warm = ck
	return nil
}
