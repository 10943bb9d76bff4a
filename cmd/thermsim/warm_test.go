package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/policy"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestPooledWarmStartMatchesCLI: a job decodes its warm-start checkpoint once
// and every concurrent cell builds its policy from that one value. Two pooled
// runs of the example tournament on 2 pool workers — one warm-started from a
// releta checkpoint (what -save-agent writes after a campaign), one from a
// distilled checkpoint — must each write the leaderboard CSV that
// `-campaign -load-agent` writes from the same file, and neither may equal
// the cold leaderboard. Under -race this also checks the shared checkpoint is
// only ever read.
func TestPooledWarmStartMatchesCLI(t *testing.T) {
	docPath := filepath.Join("..", "..", "examples", "tournament", "experiments.json")
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runCLI := func(args ...string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("thermsim %q: %v\n%s", args, err, stderr.String())
		}
	}

	// The releta checkpoint: -save-agent after a campaign whose last learner
	// is releta.
	reletaDoc := filepath.Join(dir, "releta-campaign.json")
	if err := os.WriteFile(reletaDoc, []byte(`{"name":"releta-only","policies":["releta"],"workloads":["mpegdec"],"seeds":[1]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	reletaPath := filepath.Join(dir, "releta.json")
	runCLI("-campaign", reletaDoc, "-save-agent", reletaPath)

	// The distilled checkpoint: the table a bootstrapping distilled run
	// distilled from its teacher.
	pol, err := policy.New("distilled", policy.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rc := sim.DefaultRunConfig()
	rc.DiscardTrace = true
	work, err := workload.ByName("mpegdec", workload.Set1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(rc, work, pol); err != nil {
		t.Fatal(err)
	}
	payload, err := pol.(policy.Checkpointer).SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	distilledPath := filepath.Join(dir, "distilled.json")
	if err := os.WriteFile(distilledPath, payload, 0o666); err != nil {
		t.Fatal(err)
	}

	var cold map[string]string
	if data, err := os.ReadFile(filepath.Join("testdata", "digests.json")); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &cold); err != nil {
		t.Fatal(err)
	}

	cs, err := durable.OpenCheckpoints(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewStore(0)
	pool := service.NewPool(store, 2)
	pool.SetCheckpoints(cs)
	pool.Start()
	t.Cleanup(pool.Stop)

	for _, c := range []struct{ kind, path string }{
		{policy.KindReLeTA, reletaPath},
		{policy.KindDistilled, distilledPath},
	} {
		payload, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if ck, err := policy.DecodeCheckpoint(payload); err != nil || ck.NormalizedKind() != c.kind {
			t.Fatalf("%s: checkpoint decodes as %+v (%v), want kind %q", c.path, ck, err, c.kind)
		}
		csvPath := filepath.Join(dir, c.kind+".csv")
		runCLI("-campaign", docPath, "-load-agent", c.path, "-leaderboard-csv", csvPath)
		want, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(want)
		if hex.EncodeToString(sum[:]) == cold["tournament/leaderboard-csv"] {
			t.Errorf("%s checkpoint left the leaderboard at its cold bytes", c.kind)
		}

		// One job at a time, so both pool workers run its cells side by
		// side on the one decoded checkpoint.
		if _, err := cs.Put(c.kind, payload); err != nil {
			t.Fatal(err)
		}
		job, err := pool.Submit(service.Spec{Experiment: campaign.Experiment, Campaign: doc, WarmStart: c.kind})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		final, err := pool.Wait(ctx, job.ID)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if final.State != service.StateDone || final.Progress.FailedCells != 0 {
			t.Fatalf("%s-warm job finished %s with %d failed cells: %s", c.kind, final.State, final.Progress.FailedCells, final.Error)
		}
		rows, _ := store.Rows(job.ID)
		var got bytes.Buffer
		if err := campaign.WriteCSV(&got, campaign.Leaderboard(rows.([]campaign.Row))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s-warm pooled leaderboard differs from -load-agent's:\n%s\n%s", c.kind, got.Bytes(), want)
		}
	}
}
