package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

const tournamentDoc = `{
	"name": "ci",
	"policies": ["linux-ondemand", "distilled"],
	"workloads": ["mpegdec"],
	"seeds": [1, 2]
}`

// TestTournamentEndToEnd drives a tournament through the HTTP surface:
// POST /v1/campaigns, wait, then fetch the leaderboard as JSON and as the
// deterministic CSV. Submitting the identical document twice must produce
// byte-identical CSV.
func TestTournamentEndToEnd(t *testing.T) {
	ts, pool, _ := startServer(t, 4)

	submit := func() string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tournamentDoc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /v1/campaigns = %d: %s", resp.StatusCode, body)
		}
		var job Job
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		if job.Spec.Experiment != campaign.Experiment {
			t.Fatalf("job experiment = %q", job.Spec.Experiment)
		}
		if job.Progress.TotalCells != 4 {
			t.Fatalf("planned %d cells, want 4", job.Progress.TotalCells)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		done, err := pool.Wait(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != StateDone {
			t.Fatalf("job finished %s: %s", done.State, done.Error)
		}
		return job.ID
	}
	fetchCSV := func(id string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/leaderboard?format=csv")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("leaderboard csv = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Errorf("Content-Type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	id := submit()

	var lb struct {
		Leaderboard []campaign.Entry `json:"leaderboard"`
		Rows        []campaign.Row   `json:"rows"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/leaderboard", nil, &lb); code != http.StatusOK {
		t.Fatalf("leaderboard json = %d", code)
	}
	if len(lb.Rows) != 4 || len(lb.Leaderboard) != 2 {
		t.Fatalf("leaderboard has %d entries over %d rows", len(lb.Leaderboard), len(lb.Rows))
	}
	for _, e := range lb.Leaderboard {
		if e.Runs != 2 || e.CombinedMTTF <= 0 {
			t.Errorf("entry %+v", e)
		}
	}

	csv1 := fetchCSV(id)
	if !strings.HasPrefix(csv1, "policy,runs,combined_mttf_y") {
		t.Fatalf("unexpected CSV header: %q", csv1)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/leaderboard?format=svg"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("format=svg = %d, want 400", resp.StatusCode)
		}
	}
	// Resubmission of the identical document is bit-identical.
	csv2 := fetchCSV(submit())
	if csv1 != csv2 {
		t.Fatalf("identical tournaments diverged:\n%s\n%s", csv1, csv2)
	}
}

// TestTournamentJournalRecovery: a finished tournament replays from the
// journal as a terminal snapshot whose rows decode through campaign.DecodeCellRow,
// so the leaderboard survives a restart byte-for-byte.
func TestTournamentJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	store := NewStore(0)
	store.SetJournal(j)
	pool := NewPool(store, 4)
	pool.Start()
	job, err := pool.Submit(Spec{Experiment: campaign.Experiment, Campaign: json.RawMessage(tournamentDoc)})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, pool, job.ID)
	if final.State != StateDone {
		t.Fatalf("tournament finished %s: %s", final.State, final.Error)
	}
	rowsAny, _ := store.Rows(job.ID)
	var before bytes.Buffer
	if err := campaign.WriteCSV(&before, campaign.Leaderboard(rowsAny.([]campaign.Row))); err != nil {
		t.Fatal(err)
	}
	pool.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openJournal(t, dir)
	defer j2.Close()
	store2 := NewStore(0)
	store2.SetJournal(j2)
	pool2 := NewPool(store2, 4)
	if restored, resumed := pool2.Recover(j2.Recovered()); restored != 1 || resumed != 0 {
		t.Fatalf("recover: restored %d resumed %d, want 1/0", restored, resumed)
	}
	rowsAny, ok := store2.Rows(job.ID)
	if !ok {
		t.Fatal("recovered tournament has no rows")
	}
	rows, ok := rowsAny.([]campaign.Row)
	if !ok {
		t.Fatalf("recovered rows have type %T, want []campaign.Row", rowsAny)
	}
	var after bytes.Buffer
	if err := campaign.WriteCSV(&after, campaign.Leaderboard(rows)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("leaderboard changed across recovery:\n%s\n%s", before.String(), after.String())
	}
}

// TestTournamentBadSubmissions: malformed documents and misrouted specs are
// rejected with 400 before any cell is planned.
func TestTournamentBadSubmissions(t *testing.T) {
	ts, _, _ := startServer(t, 1)
	for name, doc := range map[string]string{
		"malformed json": `{"policies": [`,
		"unknown policy": `{"policies":["bogus"],"workloads":["mpegdec"]}`,
		"empty matrix":   `{"policies":[],"workloads":[]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, resp.StatusCode)
		}
	}

	// A tournament spec through POST /v1/jobs works too, but a campaign
	// document on any other experiment is rejected.
	var out map[string]any
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		Spec{Experiment: "table2", Campaign: json.RawMessage(tournamentDoc), Quick: true}, &out); code != http.StatusBadRequest {
		t.Errorf("campaign on table2 = %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		Spec{Experiment: campaign.Experiment}, &out); code != http.StatusBadRequest {
		t.Errorf("tournament without document = %d, want 400", code)
	}

	// Leaderboard on a non-tournament job is a 400.
	var job Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		Spec{Experiment: "fig1", Quick: true}, &job); code != http.StatusAccepted {
		t.Fatalf("fig1 submit = %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/leaderboard", nil, &out); code != http.StatusBadRequest {
		t.Errorf("leaderboard on fig1 = %d, want 400", code)
	}
}
