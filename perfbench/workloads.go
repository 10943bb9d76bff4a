package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/campaign"
)

// numVariants is the size of the input domain: --seed selects variant
// seed mod numVariants, and reference/digests.json holds the expected
// output of every variant.
const numVariants = 16

// workloadDef is one named workload: how to bring the system up and how
// one closed-loop unit of work runs against it.
type workloadDef struct {
	name  string
	start func(ctx context.Context, b *bench) (system, error)
	// refName names the reference digests the outputs are checked against
	// (tournament-cluster shares tournament's: the leaderboard CSV is
	// byte-identical wherever the tournament runs).
	refName string
	// batched reports whether the pool coalesces this workload's cells into
	// lockstep batches.
	batched bool
	// plan is the workload's cells as the replay sees them.
	plan func(b *bench) (replayPlan, error)
	// setupReps is how many times a run brings the system up; setup_s is
	// the median.
	setupReps int
}

var workloads = []workloadDef{
	{name: "tournament", refName: "tournament", batched: true, start: startTournament, plan: tournamentPlan, setupReps: 15},
	{name: "tournament-cluster", refName: "tournament", start: startTournamentCluster, plan: tournamentPlan, setupReps: 15},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// inputRNG is the generator every input of a variant is drawn from.
func inputRNG(variant int) *rand.Rand { return rand.New(rand.NewSource(int64(variant)*7919 + 1)) }

// tournamentDoc is examples/tournament/experiments.json with its seeds list
// redrawn from the variant (same length, distinct seeds in 1..999).
func tournamentDoc(root string, variant int) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(root, "examples", "tournament", "experiments.json"))
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("tournament document: %w", err)
	}
	n := 3
	if old, ok := doc["seeds"].([]any); ok && len(old) > 0 {
		n = len(old)
	}
	rng := inputRNG(variant)
	seen := map[int]bool{}
	seeds := make([]int, 0, n)
	for len(seeds) < n {
		s := 1 + rng.Intn(999)
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	sort.Ints(seeds)
	doc["seeds"] = seeds
	out, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	if _, err := campaign.ParseSpec(out); err != nil {
		return nil, err
	}
	return out, nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

const leaderboardKey = "leaderboard.csv"

func tournamentJob(b *bench, v int) httpJob {
	return httpJob{
		key: leaderboardKey, submitPath: "/v1/campaigns", body: b.docs[v],
		resultPath: "/v1/jobs/%s/leaderboard?format=csv",
		digest:     func(body []byte) (string, error) { return sha(body), nil },
		check:      b.checkFor(v),
	}
}

// tournamentUnit runs one tournament job; a traced run also reads the
// job's rows for their decision-epoch counts.
func tournamentUnit(b *bench) func(ctx context.Context, s *httpSystem, traced bool) jobSample {
	n := 0
	return func(ctx context.Context, s *httpSystem, traced bool) jobSample {
		js := s.runJob(ctx, tournamentJob(b, b.variantAt(n)), traced)
		n++
		if traced && js.ok {
			code, body, err := s.do(ctx, http.MethodGet, s.front.url+"/v1/jobs/"+js.id+"/leaderboard", nil)
			var lb struct {
				Rows []campaign.Row `json:"rows"`
			}
			if err != nil || code != http.StatusOK || json.Unmarshal(body, &lb) != nil {
				js.ok, js.err = false, fmt.Sprintf("leaderboard rows %s: %d %v", js.id, code, err)
			}
			for _, r := range lb.Rows {
				js.epochs = append(js.epochs, r.DecisionEpochs)
			}
		}
		return js
	}
}

func startTournament(ctx context.Context, b *bench) (system, error) {
	s, err := startStandalone(ctx, b)
	if err != nil {
		return nil, err
	}
	s.work = tournamentUnit(b)
	return s, nil
}

func startTournamentCluster(ctx context.Context, b *bench) (system, error) {
	s, err := startCluster(ctx, b)
	if err != nil {
		return nil, err
	}
	s.work = tournamentUnit(b)
	return s, nil
}

// references maps workload → variant → output key → sha256 of the output.
type references map[string]map[string]map[string]string

func referencePath(root string) string {
	return filepath.Join(root, "perfbench", "reference", "digests.json")
}

func loadReferences(path string) (references, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r references
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// checker returns the output check of one workload variant: a digest must
// equal the recorded reference for its key.
func (r references) checker(workload string, variant int) func(key, digest string) error {
	want := r[workload][strconv.Itoa(variant)]
	return func(key, digest string) error {
		ref, ok := want[key]
		if !ok {
			return fmt.Errorf("no reference digest for %s variant %d output %q", workload, variant, key)
		}
		if ref != digest {
			return fmt.Errorf("output %q digest %s differs from reference %s", key, short(digest), short(ref))
		}
		return nil
	}
}

// checks returns the output checks of every variant of a workload.
func (r references) checks(workload string) func(variant int) func(key, digest string) error {
	return func(v int) func(key, digest string) error { return r.checker(workload, v) }
}

// recorders is checks' counterpart for regenerating the references.
func (r references) recorders(workload string) func(variant int) func(key, digest string) error {
	return func(v int) func(key, digest string) error { return r.recorder(workload, v) }
}

// recorder returns a check that records every digest instead, for
// regenerating the references; a key seen twice must repeat its digest.
func (r references) recorder(workload string, variant int) func(key, digest string) error {
	if r[workload] == nil {
		r[workload] = map[string]map[string]string{}
	}
	v := strconv.Itoa(variant)
	if r[workload][v] == nil {
		r[workload][v] = map[string]string{}
	}
	got := r[workload][v]
	return func(key, digest string) error {
		if prev, ok := got[key]; ok && prev != digest {
			return fmt.Errorf("output %q is not deterministic: %s then %s", key, short(prev), short(digest))
		}
		got[key] = digest
		return nil
	}
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
