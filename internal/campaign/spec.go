// Package campaign is the declarative tournament engine: it parses an
// experiments.json document describing a policies x workloads x seeds x
// repeats matrix (with per-cell overrides), expands it into the job
// subsystem's experiment cells, and aggregates the completed runs into
// per-policy leaderboards. The same document runs standalone through
// thermsim -campaign, pooled through POST /v1/campaigns, or sharded across
// cluster workers — bit-identically, because every cell derives its RL seed
// from the spec alone and no leaderboard column depends on wall-clock time.
package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/policy"
	"repro/internal/workload"
)

// Experiment is the reserved experiment id tournaments run under in the job
// subsystem. A service.Spec with this experiment carries the campaign
// document; the campaign planner expands it instead of experiments.Cells.
const Experiment = "tournament"

// ErrEmptyMatrix reports a spec whose policy x workload matrix is empty.
var ErrEmptyMatrix = errors.New("campaign: empty matrix: need at least one policy and one workload")

// maxPlanCells bounds the cells one document may plan, about 2,000 times the
// example tournament's 33. Planning materializes every cell, so a document
// naming a huge repeat count or seed list must be refused before it is
// planned.
const maxPlanCells = 1 << 16

// ErrPlanTooLarge reports a spec whose matrix plans more than maxPlanCells
// cells.
var ErrPlanTooLarge = fmt.Errorf("campaign: plan exceeds %d cells", maxPlanCells)

// ErrInvalidSpec is wrapped by every other rejection of a document that
// decodes: duplicate names, out-of-range counts, trailing data, override
// keys outside the matrix.
var ErrInvalidSpec = errors.New("campaign: invalid spec")

// UnknownWorkloadError reports a workload name no application (or "-"-joined
// application sequence) matches.
type UnknownWorkloadError struct {
	Workload string
	Err      error
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("campaign: unknown workload %q: %v", e.Workload, e.Err)
}

func (e *UnknownWorkloadError) Unwrap() error { return e.Err }

// CellOverride narrows one (policy, workload) cell of the matrix, keyed in
// Spec.Overrides as "policy/workload".
type CellOverride struct {
	// Seeds replaces the spec-level seed list for this cell when non-empty.
	Seeds []int64 `json:"seeds,omitempty"`
	// Repeats replaces the spec-level repeat count when positive.
	Repeats int `json:"repeats,omitempty"`
}

// Spec is the experiments.json tournament document.
type Spec struct {
	// Name labels the tournament in reports (optional).
	Name string `json:"name,omitempty"`
	// Policies are registered policy names (see the policy package); every
	// policy runs every workload.
	Policies []string `json:"policies"`
	// Workloads are application names or "-"-joined sequences
	// (e.g. "tachyon", "mpegdec-mpegenc").
	Workloads []string `json:"workloads"`
	// Seeds are the base RL seeds; each (policy, workload) pair runs once
	// per seed (x Repeats). Empty means the single base seed 0 (the
	// policies' package-default seeding).
	Seeds []int64 `json:"seeds,omitempty"`
	// Repeats runs every (policy, workload, seed) combination this many
	// times with decorrelated derived seeds; <= 0 means 1.
	Repeats int `json:"repeats,omitempty"`
	// DataSet selects the workload data set (1-3); 0 means 1.
	DataSet int `json:"dataset,omitempty"`
	// WarmStart optionally names a stored checkpoint; the job service
	// resolves it and the payload is routed to the registered policy whose
	// kind matches.
	WarmStart string `json:"warm_start,omitempty"`
	// Overrides narrows individual cells, keyed "policy/workload".
	Overrides map[string]CellOverride `json:"overrides,omitempty"`
}

// ParseSpec strictly decodes and validates a tournament document. Malformed
// JSON (including unknown fields) is reported as a wrapped decode error,
// unregistered policies as *policy.UnknownPolicyError, unresolvable
// workloads as *UnknownWorkloadError, an empty matrix as ErrEmptyMatrix, a
// plan past maxPlanCells as ErrPlanTooLarge, and anything else as a wrapped
// ErrInvalidSpec.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: parse spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after document", ErrInvalidSpec)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the matrix without running or planning anything.
func (s *Spec) Validate() error {
	if len(s.Policies) == 0 || len(s.Workloads) == 0 {
		return ErrEmptyMatrix
	}
	seenPolicy := map[string]bool{}
	for _, p := range s.Policies {
		if _, ok := policy.Lookup(p); !ok {
			return &policy.UnknownPolicyError{Name: p}
		}
		if seenPolicy[p] {
			return fmt.Errorf("%w: policy %q listed twice (leaderboard entries would collide)", ErrInvalidSpec, p)
		}
		seenPolicy[p] = true
	}
	seenWorkload := map[string]bool{}
	for _, w := range s.Workloads {
		if err := checkWorkload(w, s.dataSet()); err != nil {
			return err
		}
		if seenWorkload[w] {
			return fmt.Errorf("%w: workload %q listed twice", ErrInvalidSpec, w)
		}
		seenWorkload[w] = true
	}
	if s.Repeats < 0 {
		return fmt.Errorf("%w: negative repeats %d", ErrInvalidSpec, s.Repeats)
	}
	if s.DataSet < 0 || s.DataSet > 3 {
		return fmt.Errorf("%w: dataset %d out of range 1..3", ErrInvalidSpec, s.DataSet)
	}
	for key, ov := range s.Overrides {
		p, w, ok := splitOverrideKey(key)
		if !ok || !seenPolicy[p] || !seenWorkload[w] {
			return fmt.Errorf("%w: override key %q does not name a \"policy/workload\" cell of the matrix", ErrInvalidSpec, key)
		}
		if ov.Repeats < 0 {
			return fmt.Errorf("%w: override %q: negative repeats %d", ErrInvalidSpec, key, ov.Repeats)
		}
	}
	if _, ok := s.planSize(); !ok {
		return ErrPlanTooLarge
	}
	return nil
}

// planSize counts the cells plan expands. It stops with ok false as soon as
// the count would pass maxPlanCells, so no product of seeds and repeats can
// overflow.
func (s *Spec) planSize() (n int, ok bool) {
	for _, p := range s.Policies {
		for _, w := range s.Workloads {
			seeds, repeats := s.cellShape(p, w)
			if repeats > (maxPlanCells-n)/len(seeds) {
				return n, false
			}
			n += len(seeds) * repeats
		}
	}
	return n, true
}

// splitOverrideKey splits "policy/workload" at the first slash (workload
// names never contain one; policy names never do either).
func splitOverrideKey(key string) (policyName, workloadName string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:], true
		}
	}
	return "", "", false
}

// dataSet resolves the workload data set.
func (s *Spec) dataSet() workload.DataSet {
	switch s.DataSet {
	case 2:
		return workload.Set2
	case 3:
		return workload.Set3
	default:
		return workload.Set1
	}
}

// cellPlan is one expanded tournament cell.
type cellPlan struct {
	Policy, Workload string
	Seed             int64
	Repeat           int
}

// cellShape resolves the seeds and repeat count of one (policy, workload)
// cell: the spec-level values unless its override narrows them.
func (s *Spec) cellShape(p, w string) (seeds []int64, repeats int) {
	seeds, repeats = s.Seeds, s.Repeats
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	if repeats <= 0 {
		repeats = 1
	}
	if ov, ok := s.Overrides[p+"/"+w]; ok {
		if len(ov.Seeds) > 0 {
			seeds = ov.Seeds
		}
		if ov.Repeats > 0 {
			repeats = ov.Repeats
		}
	}
	return seeds, repeats
}

// plan expands the matrix in deterministic order: policies x workloads x
// seeds x repeats, with per-cell overrides applied.
func (s *Spec) plan() []cellPlan {
	var cells []cellPlan
	for _, p := range s.Policies {
		for _, w := range s.Workloads {
			seeds, repeats := s.cellShape(p, w)
			for _, seed := range seeds {
				for rep := 0; rep < repeats; rep++ {
					cells = append(cells, cellPlan{Policy: p, Workload: w, Seed: seed, Repeat: rep})
				}
			}
		}
	}
	return cells
}

// agentSeed derives the RL seed a cell's learner uses: deterministic in the
// cell's coordinates (so resubmitting a spec is bit-identical wherever it
// runs) while decorrelating policies, workloads and repeats that share a
// base seed.
func (c cellPlan) agentSeed() int64 {
	return deriveSeed(c.Seed, fmt.Sprintf("%s/%s/r%d", c.Policy, c.Workload, c.Repeat))
}

// deriveSeed mixes a base seed with a label into a decorrelated, never-zero
// seed: FNV-1a over the label, then a splitmix64 finalizer. It mirrors the
// job service's DeriveSeed (which this package cannot import — the service
// depends on the campaign planner).
func deriveSeed(base int64, label string) int64 {
	h := fnv.New64a()
	io.WriteString(h, label)
	x := uint64(base) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return int64(x)
}
