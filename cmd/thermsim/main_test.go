package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/golden"
	"repro/internal/policy"
	"repro/internal/service"
)

// TestJSONSuiteMatchesSequential: `-quick -json suite` prints exactly the
// rows of the sequential suite runner on the same config.
func TestJSONSuiteMatchesSequential(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-json", "suite"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	var got map[string][]experiments.SuiteRow
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("decode output: %v\n%s", err, stdout.String())
	}
	cfg := experiments.DefaultConfig()
	cfg.Quick = true
	want, err := experiments.Suite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got["suite"], want) {
		t.Errorf("CLI rows differ from experiments.Suite:\n%+v\n%+v", got["suite"], want)
	}
}

// TestCampaignLeaderboardCSVMatchesSequential: -leaderboard-csv writes the
// bytes campaign.WriteCSV produces over the leaderboard of the example
// tournament's cells run in order. The same run's -json stdout, leaderboard
// CSV, -events and -learning-csv outputs must hash to the digests pinned in
// testdata/digests.json.
func TestCampaignLeaderboardCSVMatchesSequential(t *testing.T) {
	docPath := filepath.Join("..", "..", "examples", "tournament", "experiments.json")
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "leaderboard.csv")
	eventsPath := filepath.Join(dir, "events.jsonl")
	learningPath := filepath.Join(dir, "learning.csv")
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-campaign", docPath, "-json", "-leaderboard-csv", csvPath,
		"-events", eventsPath, "-learning-csv", learningPath}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	got, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	pins := golden.Open(t, filepath.Join("testdata", "digests.json"))
	pins.Check(t, "tournament/json", stdout.Bytes())
	pins.Check(t, "tournament/leaderboard-csv", got)
	for name, path := range map[string]string{"tournament/events": eventsPath, "tournament/learning-csv": learningPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pins.Check(t, name, data)
	}

	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.DefaultConfig()
	cfg.CampaignJSON = doc
	cells, assemble, err := campaign.Cells(cfg, campaign.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]any, len(cells))
	for i, c := range cells {
		if rows[i], err = c.Run(context.Background()); err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
	}
	var want bytes.Buffer
	if err := campaign.WriteCSV(&want, campaign.Leaderboard(assemble(rows).([]campaign.Row))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("leaderboard CSV differs from the sequential rows':\n%s\n%s", got, want.Bytes())
	}
}

// TestPooledEventsMatchCLI: a one-worker pool runs the example tournament's
// runs in plan order, as -campaign does, so the job's /events body — read
// off its trace's epoch spans — hashes to the pin of the CLI's -events
// output.
func TestPooledEventsMatchCLI(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "tournament", "experiments.json"))
	if err != nil {
		t.Fatal(err)
	}
	store := service.NewStore(0)
	pool := service.NewPool(store, 1)
	pool.Start()
	t.Cleanup(pool.Stop)
	job, err := pool.Submit(service.Spec{Experiment: campaign.Experiment, Campaign: doc})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if final, err := pool.Wait(ctx, job.ID); err != nil || final.State != service.StateDone {
		t.Fatalf("job finished %s (%v): %s", final.State, err, final.Error)
	}
	rec := httptest.NewRecorder()
	service.NewServer(store, pool).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("events: status %d: %s", rec.Code, rec.Body)
	}
	golden.Open(t, filepath.Join("testdata", "digests.json")).Check(t, "tournament/events", rec.Body.Bytes())
}

// TestCampaignSaveAgentRoundTrip: -save-agent after a -campaign run writes
// the last learning run's own checkpoint — ReLeTA is the example
// tournament's last learner, so the file is tagged releta — and -load-agent
// warm-starts the same campaign from it.
func TestCampaignSaveAgentRoundTrip(t *testing.T) {
	docPath := filepath.Join("..", "..", "examples", "tournament", "experiments.json")
	agentPath := filepath.Join(t.TempDir(), "agent.json")
	for _, flag := range []string{"-save-agent", "-load-agent"} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), []string{"-campaign", docPath, flag, agentPath}, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v\n%s", flag, err, stderr.String())
		}
	}
	payload, err := os.ReadFile(agentPath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := policy.DecodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Kind != policy.KindReLeTA {
		t.Errorf("saved checkpoint kind = %q, want %q", ck.Kind, policy.KindReLeTA)
	}
}

// TestUsageErrors: command-line mistakes come back as errUsage (exit status
// 2) before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-no-such-flag", "fig6"},
		{"-log-level", "loud", "fig6"},
		{"-campaign", "experiments.json", "fig6"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Errorf("%q: err = %v, want errUsage", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout: %s", args, stdout.String())
		}
	}
}
