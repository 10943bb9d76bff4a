package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/policy"
)

const testDoc = `{
	"name": "determinism",
	"policies": ["linux-ondemand", "distilled"],
	"workloads": ["mpegdec"],
	"seeds": [1, 2]
}`

// runTournament expands and executes a document sequentially, returning the
// typed rows.
func runTournament(t *testing.T, doc []byte) []Row {
	t.Helper()
	cfg := experiments.DefaultConfig()
	cfg.CampaignJSON = doc
	cells, assemble, err := Cells(cfg, Experiment)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]any, len(cells))
	for i, c := range cells {
		row, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
		raw[i] = row
	}
	return assemble(raw).([]Row)
}

// TestTournamentDeterminism runs the same document twice and demands
// bit-identical rows and leaderboard CSV — the property that makes
// standalone, pooled and sharded tournaments comparable.
func TestTournamentDeterminism(t *testing.T) {
	r1 := runTournament(t, []byte(testDoc))
	r2 := runTournament(t, []byte(testDoc))
	j1, _ := json.Marshal(r1)
	j2, _ := json.Marshal(r2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("rows differ across identical runs:\n%s\n%s", j1, j2)
	}
	var csv1, csv2 bytes.Buffer
	if err := WriteCSV(&csv1, Leaderboard(r1)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csv2, Leaderboard(r2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Fatalf("leaderboard CSV differs:\n%s\n%s", csv1.String(), csv2.String())
	}
}

// TestTournamentRowsCarryMetrics sanity-checks the row surface: learner rows
// report rewards and decision epochs, baseline rows do not, and every row
// carries the reliability metrics the leaderboard ranks by.
func TestTournamentRowsCarryMetrics(t *testing.T) {
	rows := runTournament(t, []byte(testDoc))
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.CombinedMTTF <= 0 || r.PeakTempC <= 0 || r.ExecTimeS <= 0 {
			t.Errorf("row %+v missing metrics", r)
		}
		switch r.Policy {
		case "linux-ondemand":
			if r.DecisionEpochs != 0 || r.MeanReward != 0 {
				t.Errorf("baseline row reports learner stats: %+v", r)
			}
		case "distilled":
			if r.DecisionEpochs == 0 {
				t.Errorf("learner row has no decision epochs: %+v", r)
			}
		}
	}
}

// TestCellsShareSeedInsensitiveRuns: the plan keeps one cell per (policy,
// workload, seed, repeat) with its own key, Run and Prepare, and marks every
// later cell of a seed-insensitive policy's workload as sharing that
// workload's first cell. A sharing cell's mapped row is the row its own Run
// produces, and does not alias the shared run's row.
func TestCellsShareSeedInsensitiveRuns(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.CampaignJSON = []byte(`{
		"policies": ["linux-ondemand", "distilled"],
		"workloads": ["mpegdec", "tachyon"],
		"seeds": [1, 2],
		"repeats": 2
	}`)
	cells, _, err := Cells(cfg, Experiment)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 16 {
		t.Fatalf("planned %d cells, want 16", len(cells))
	}
	for i, c := range cells {
		if c.Run == nil || c.Prepare == nil {
			t.Errorf("%s lost its Run or Prepare", c.Key)
		}
		// linux-ondemand's mpegdec cells are 0-3 and its tachyon cells 4-7.
		var want *int
		if first := i - i%4; i < 8 && i != first {
			want = &first
		}
		switch sh := c.Shares; {
		case want == nil && sh != nil:
			t.Errorf("%s shares cell %d, want its own run", c.Key, sh.Cell)
		case want != nil && (sh == nil || sh.Cell != *want):
			t.Errorf("%s shares %+v, want cell %d", c.Key, sh, *want)
		}
	}
	if key := cells[7].Key; key != "tournament/linux-ondemand/tachyon/s2/r1" {
		t.Errorf("cell 7 key %q", key)
	}

	shared, err := cells[4].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	own, err := cells[7].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mapped := cells[7].Shares.Row(shared).(Row)
	if !reflect.DeepEqual(mapped, own) {
		t.Fatalf("mapped row differs from the cell's own run:\n%+v\n%+v", mapped, own)
	}
	mapped.CoreDamageShare[0] = -1
	if shared.(Row).CoreDamageShare[0] == -1 {
		t.Error("mapped row aliases the shared run's CoreDamageShare")
	}
}

// TestRowJSONRoundTrip pins the journal/cluster serialization: a row decoded
// from its JSON is the row (shortest-form float64 encoding is exact).
func TestRowJSONRoundTrip(t *testing.T) {
	rows := runTournament(t, []byte(`{"policies":["linux-ondemand"],"workloads":["mpegdec"]}`))
	data, err := json.Marshal(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCellRow(Experiment, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.(Row), rows[0]) {
		t.Fatalf("round trip changed the row:\n%+v\n%+v", got, rows[0])
	}
}

// TestCellsDelegatesNonTournament: every other experiment id still plans
// through experiments.Cells.
func TestCellsDelegatesNonTournament(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Quick = true
	cells, _, err := Cells(cfg, "table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("table2 planned no cells")
	}
	if _, _, err := Cells(cfg, "no-such-experiment"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestCellsRejectsBadDocument: a tournament with an invalid document fails at
// planning time, before any cell runs.
func TestCellsRejectsBadDocument(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.CampaignJSON = []byte(`{"policies":[],"workloads":[]}`)
	if _, _, err := Cells(cfg, Experiment); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

func TestLeaderboardRanking(t *testing.T) {
	rows := []Row{
		{Policy: "a", CombinedMTTF: 1, MeanReward: 0.5, DecisionEpochs: 10},
		{Policy: "b", CombinedMTTF: 3},
		{Policy: "a", CombinedMTTF: 2, MeanReward: 0.7, DecisionEpochs: 20},
	}
	entries := Leaderboard(rows)
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	if entries[0].Policy != "b" || entries[1].Policy != "a" {
		t.Fatalf("ranking %v", entries)
	}
	a := entries[1]
	if a.Runs != 2 || a.CombinedMTTF != 1.5 || a.MeanReward != 0.6 || a.MeanDecisionEpochs != 15 {
		t.Errorf("aggregation wrong: %+v", a)
	}
}

// TestLeaderboardTieBreak: policies with equal combined MTTF rank
// alphabetically by name, so leaderboards stay byte-stable however the rows
// arrive (standalone, pooled, or sharded across workers).
func TestLeaderboardTieBreak(t *testing.T) {
	rows := []Row{
		{Policy: "zeta", CombinedMTTF: 2},
		{Policy: "alpha", CombinedMTTF: 2},
		{Policy: "mid", CombinedMTTF: 2},
		{Policy: "winner", CombinedMTTF: 5},
	}
	entries := Leaderboard(rows)
	got := make([]string, len(entries))
	for i, e := range entries {
		got[i] = e.Policy
	}
	want := []string{"winner", "alpha", "mid", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie-break order %v, want %v", got, want)
	}
}

func TestApplyWarmPayloadRejectsForeignKindOutsideTournament(t *testing.T) {
	payload := []byte(`{"policy_kind":"distilled","states":12,"actions":12,"best":[0,0,0,0,0,0,0,0,0,0,0,0]}`)
	cfg := experiments.DefaultConfig()
	if err := ApplyWarmPayload(&cfg, "table2", payload); err == nil {
		t.Fatal("distilled checkpoint accepted for a non-tournament experiment")
	}
	cfg = experiments.DefaultConfig()
	if err := ApplyWarmPayload(&cfg, Experiment, payload); err != nil {
		t.Fatalf("tournament rejected a routable checkpoint: %v", err)
	}
	if cfg.Warm == nil || cfg.Warm.NormalizedKind() != policy.KindDistilled || cfg.Warm.Table == nil {
		t.Errorf("distilled payload not set as cfg.Warm: %+v", cfg.Warm)
	}
	if cfg.Warm != nil && cfg.Warm.Agent != nil {
		t.Error("distilled payload decoded into a proposed warm-start agent")
	}
}
