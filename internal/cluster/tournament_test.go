package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/service"
)

// tournamentDoc includes releta — a live learner whose cells sample learning
// curves — so the bit-identity check below also covers the leaderboard's
// converge_epoch and core_damage_share columns.
const tournamentDoc = `{
	"name": "cluster-ci",
	"policies": ["linux-ondemand", "distilled", "releta"],
	"workloads": ["mpegdec"],
	"seeds": [1, 2]
}`

// TestTournamentCluster shards a tournament across two worker nodes running
// the real executor and demands the leaderboard CSV be byte-identical to the
// same document executed standalone — the acceptance criterion that dispatch,
// JSON transport and journal decoding add no drift.
func TestTournamentCluster(t *testing.T) {
	// Standalone reference: expand and run the cells in-process.
	cfg := experiments.DefaultConfig()
	cfg.CampaignJSON = []byte(tournamentDoc)
	cells, assemble, err := campaign.Cells(cfg, campaign.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]any, len(cells))
	for i, c := range cells {
		if raw[i], err = c.Run(context.Background()); err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
	}
	var want bytes.Buffer
	if err := campaign.WriteCSV(&want, campaign.Leaderboard(assemble(raw).([]campaign.Row))); err != nil {
		t.Fatal(err)
	}

	// Sharded: two workers with the default ExecuteCell.
	tc := startTestCluster(t, testClusterConfig(), nil)
	tc.addWorker(2, nil)
	tc.addWorker(2, nil)
	job := tc.submitAndWait(service.Spec{
		Experiment: campaign.Experiment,
		Campaign:   json.RawMessage(tournamentDoc),
	}, time.Minute)
	if job.State != service.StateDone {
		t.Fatalf("tournament finished %s: %s", job.State, job.Error)
	}
	if job.Progress.DoneCells != len(cells) {
		t.Fatalf("cluster completed %d cells, want %d", job.Progress.DoneCells, len(cells))
	}
	// linux-ondemand's seed 2 shares its seed 1 run, so the coordinator
	// leases one cell per distinct run: 5 of the 6.
	runs := 0
	for _, c := range cells {
		if c.Shares == nil {
			runs++
		}
	}
	if leases := tc.coord.leasesGranted.Value(); runs != 5 || leases != int64(runs) {
		t.Errorf("%d leases granted for %d distinct runs, want 5 for 5", leases, runs)
	}
	rowsAny, ok := tc.store.Rows(job.ID)
	if !ok {
		t.Fatal("no rows for finished tournament")
	}
	var got bytes.Buffer
	if err := campaign.WriteCSV(&got, campaign.Leaderboard(rowsAny.([]campaign.Row))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("standalone and sharded leaderboards diverge:\n--- standalone\n%s--- sharded\n%s", want.String(), got.String())
	}
}
