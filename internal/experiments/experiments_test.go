package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/workload"
)

func quickCfg() Config {
	return Config{Run: DefaultConfig().Run, Quick: true}
}

func TestNewPolicyKnownNames(t *testing.T) {
	for _, name := range []string{
		PolicyLinuxOndemand, PolicyLinuxPowersave, PolicyLinux24,
		PolicyLinux34, PolicyGe, PolicyGeModified, PolicyProposed,
	} {
		p, err := newPolicy(Config{}, name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Name() != name && !strings.HasPrefix(p.Name(), "linux-") {
			t.Errorf("%s resolved to %q", name, p.Name())
		}
	}
	if _, err := newPolicy(Config{}, "turbo"); err == nil {
		t.Error("expected error for unknown policy")
	}
}

func TestScenarioApps(t *testing.T) {
	seq, err := scenarioApps("mpegdec-tachyon", workload.Set1)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Name() != "mpeg_dec-tachyon" {
		t.Errorf("sequence name = %q", seq.Name())
	}
	if _, err := scenarioApps("mpegdec-quake", workload.Set1); err == nil {
		t.Error("expected error for unknown app in scenario")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := RunCtx(context.Background(), quickCfg(), "fig99"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestExperimentNamesResolve(t *testing.T) {
	// Every listed experiment must be runnable (Quick mode keeps it fast).
	// This is the repository's end-to-end smoke test.
	cfg := quickCfg()
	for _, id := range ExperimentNames() {
		out, err := RunCtx(context.Background(), cfg, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) == 0 {
			t.Errorf("%s produced empty report", id)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	cells, err := Table2(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: 3 apps x 1 set x 3 policies.
	if len(cells) != 9 {
		t.Fatalf("got %d cells, want 9", len(cells))
	}
	byKey := map[string]Table2Cell{}
	for _, c := range cells {
		byKey[c.App+"/"+c.Policy] = c
	}
	// Headline shape 1: the proposed controller runs cooler than Linux on
	// every application.
	for _, app := range table2Apps {
		lin := byKey[app+"/"+PolicyLinuxOndemand]
		pr := byKey[app+"/"+PolicyProposed]
		if pr.AvgTempC >= lin.AvgTempC {
			t.Errorf("%s: proposed avg %.1f >= linux %.1f", app, pr.AvgTempC, lin.AvgTempC)
		}
		if pr.AgingMTTF <= lin.AgingMTTF {
			t.Errorf("%s: proposed aging MTTF %.2f <= linux %.2f", app, pr.AgingMTTF, lin.AgingMTTF)
		}
	}
	// Headline shape 2: tachyon is the hottest application under Linux.
	if byKey["tachyon/"+PolicyLinuxOndemand].AvgTempC <= byKey["mpeg_dec/"+PolicyLinuxOndemand].AvgTempC {
		t.Error("tachyon should be hotter than mpeg_dec under Linux")
	}
	// Headline shape 3: on mpeg (cycling-dominated), the proposed approach
	// beats both comparators on cycling MTTF.
	for _, app := range []string{"mpeg_dec", "mpeg_enc"} {
		pr := byKey[app+"/"+PolicyProposed].CyclingMTTF
		lin := byKey[app+"/"+PolicyLinuxOndemand].CyclingMTTF
		ge := byKey[app+"/"+PolicyGe].CyclingMTTF
		if pr <= lin || pr <= ge {
			t.Errorf("%s: proposed cycling MTTF %.1f should beat linux %.1f and ge %.1f", app, pr, lin, ge)
		}
	}
	// Formatting round trip.
	out := FormatTable2(cells)
	if !strings.Contains(out, "tachyon") || !strings.Contains(out, "cycling MTTF") {
		t.Error("FormatTable2 output incomplete")
	}
}

func TestFig3Shapes(t *testing.T) {
	rows, err := Fig3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 scenarios x 3 policies in quick mode
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	byKey := map[string]Fig3Row{}
	for _, r := range rows {
		byKey[r.Scenario+"/"+r.Policy] = r
		if r.Policy == PolicyLinuxOndemand && math.Abs(r.Normalized-1) > 1e-9 {
			t.Errorf("linux normalization broken: %g", r.Normalized)
		}
	}
	// The proposed controller beats Linux on inter-application cycling in
	// these scenarios.
	for _, sc := range fig3Scenarios[:2] {
		pr := byKey[sc+"/"+PolicyProposed]
		if pr.Normalized <= 1 {
			t.Errorf("%s: proposed normalized MTTF %.2f, want > 1", sc, pr.Normalized)
		}
	}
	out := FormatFig3(rows)
	if !strings.Contains(out, "normalized") {
		t.Error("FormatFig3 output incomplete")
	}
}

func TestFig6Shapes(t *testing.T) {
	rows, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Coarser sampling must over-estimate MTTF, reduce autocorrelation and
	// reduce counter overhead.
	if last.ComputedMTTF <= first.ComputedMTTF {
		t.Errorf("coarse sampling should over-estimate MTTF: %.2f vs %.2f", last.ComputedMTTF, first.ComputedMTTF)
	}
	if last.Autocorrelation >= first.Autocorrelation {
		t.Errorf("autocorrelation should fall: %.3f vs %.3f", last.Autocorrelation, first.Autocorrelation)
	}
	if last.CacheMisses >= first.CacheMisses {
		t.Errorf("cache misses should fall: %d vs %d", last.CacheMisses, first.CacheMisses)
	}
	if last.PageFaults >= first.PageFaults {
		t.Errorf("page faults should fall: %d vs %d", last.PageFaults, first.PageFaults)
	}
}

func TestFig7Shapes(t *testing.T) {
	rows, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 1 app x 3 epochs in quick mode
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// Learning time grows monotonically with the decision epoch.
	for i := 1; i < len(rows); i++ {
		if rows[i].LearningTimeS <= rows[i-1].LearningTimeS {
			t.Errorf("learning time should grow with epoch: %v", rows)
		}
	}
	if rows[0].NormLearningTime != 1 {
		t.Errorf("first epoch learning time should normalize to 1, got %g", rows[0].NormLearningTime)
	}
}

func TestFig8Shapes(t *testing.T) {
	rows, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2x2 sizes in quick mode
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// Iterations for the largest table exceed the smallest.
	var smallest, largest Fig8Row
	smallArea, largeArea := math.MaxInt32, -1
	for _, r := range rows {
		area := r.States * r.Actions
		if area < smallArea {
			smallArea, smallest = area, r
		}
		if area > largeArea {
			largeArea, largest = area, r
		}
	}
	if largest.Iterations <= smallest.Iterations {
		t.Errorf("larger table should need more iterations: %dx%d=%d vs %dx%d=%d",
			largest.States, largest.Actions, largest.Iterations,
			smallest.States, smallest.Actions, smallest.Iterations)
	}
}

func TestPerfEnergyGridShapes(t *testing.T) {
	cells, err := PerfEnergyGrid(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	byPol := map[string]PerfEnergyCell{}
	for _, c := range cells {
		byPol[c.Policy] = c
	}
	// 3.4 GHz is fastest; powersave slowest and lowest power.
	if byPol[PolicyLinux34].ExecTimeS >= byPol[PolicyLinuxPowersave].ExecTimeS {
		t.Error("3.4 GHz should beat powersave on time")
	}
	if byPol[PolicyLinuxPowersave].AvgDynPowerW >= byPol[PolicyLinux34].AvgDynPowerW {
		t.Error("powersave should draw less power than 3.4 GHz")
	}
	// Proposed saves dynamic power vs plain ondemand.
	if byPol[PolicyProposed].AvgDynPowerW >= byPol[PolicyLinuxOndemand].AvgDynPowerW {
		t.Error("proposed should lower average dynamic power vs ondemand")
	}
	// Both formatters work off the same grid.
	if out := FormatTable3(cells); !strings.Contains(out, "tachyon") {
		t.Error("FormatTable3 incomplete")
	}
	if out := FormatFig9(cells); !strings.Contains(out, "dynamic energy") {
		t.Error("FormatFig9 incomplete")
	}
}

func TestFig1Shapes(t *testing.T) {
	r, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(r.Rows))
	}
	byKey := map[string]Fig1Row{}
	for _, row := range r.Rows {
		byKey[row.App+"/"+row.Assignment] = row
	}
	// The paper's observation: the same fixed assignment helps mpeg
	// (less cycling) but hurts face recognition (more cycling).
	fr := byKey["face_rec/fixed-affinity"].CyclingMTTF / byKey["face_rec/linux-default"].CyclingMTTF
	me := byKey["mpeg_enc/fixed-affinity"].CyclingMTTF / byKey["mpeg_enc/linux-default"].CyclingMTTF
	if me <= fr {
		t.Errorf("fixed affinity should help mpeg more than face_rec: mpeg ratio %.2f, face ratio %.2f", me, fr)
	}
	if r.DefaultSeq == nil || r.PinnedSeq == nil {
		t.Error("missing back-to-back traces")
	}
}

func TestRepeatsResolution(t *testing.T) {
	if (Config{}).repeats() != 3 {
		t.Error("default repeats should be 3")
	}
	if (Config{Quick: true}).repeats() != 1 {
		t.Error("quick repeats should be 1")
	}
	if (Config{Repeats: 7}).repeats() != 7 {
		t.Error("explicit repeats ignored")
	}
}

func TestAblationShapes(t *testing.T) {
	rows, err := Ablation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // 1 scenario x 2 variants in quick mode
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	byVariant := map[string]AblationRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	full, coupled := byVariant["full"], byVariant["coupled-sampling"]
	// Removing the sampling/epoch separation (the paper's contribution 2)
	// must hurt thermal-cycling control on tachyon.
	if coupled.CyclingMTTF >= full.CyclingMTTF {
		t.Errorf("coupled sampling cycling MTTF %.2f should be below full %.2f",
			coupled.CyclingMTTF, full.CyclingMTTF)
	}
}

func TestAblationUnknownVariant(t *testing.T) {
	if _, err := ablationVariant("no-such-thing"); err == nil {
		t.Error("expected error for unknown variant")
	}
}

func TestSeedStudyShapes(t *testing.T) {
	rows, err := SeedStudy(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1 in quick mode", len(rows))
	}
	r := rows[0]
	if r.Seeds != 3 {
		t.Errorf("Seeds = %d, want 3", r.Seeds)
	}
	if r.AgingMTTF.Min > r.AgingMTTF.Mean || r.AgingMTTF.Mean > r.AgingMTTF.Max {
		t.Error("stat ordering broken")
	}
	// The aging improvement must be robust: even the worst seed beats Linux.
	if r.AgingMTTF.Min <= r.LinuxAgingMTTF {
		t.Errorf("worst-seed aging MTTF %.2f should beat linux %.2f", r.AgingMTTF.Min, r.LinuxAgingMTTF)
	}
	if out := FormatSeedStudy(rows); !strings.Contains(out, "tachyon") {
		t.Error("FormatSeedStudy incomplete")
	}
}

func TestManycoreShapes(t *testing.T) {
	rows, err := Manycore(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 grids x 2 policies in quick mode
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		lin, pr := rows[i], rows[i+1]
		if lin.Cores != pr.Cores {
			t.Fatal("row pairing broken")
		}
		if pr.AvgTempC >= lin.AvgTempC {
			t.Errorf("%d cores: proposed avg %.1f >= linux %.1f", pr.Cores, pr.AvgTempC, lin.AvgTempC)
		}
		if pr.AgingMTTF <= lin.AgingMTTF {
			t.Errorf("%d cores: proposed aging %.2f <= linux %.2f", pr.Cores, pr.AgingMTTF, lin.AgingMTTF)
		}
	}
	if out := FormatManycore(rows); !strings.Contains(out, "cores") {
		t.Error("FormatManycore incomplete")
	}
}

// TestManycoreMappingsDegenerateGrids is the regression test for the
// half-chip template dividing by zero on a 1-core grid: every template must
// stay well-defined (slots within [0, cores)) down to a single core.
func TestManycoreMappingsDegenerateGrids(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 4, 16} {
		maps := manycoreMappings(cores, 6)
		if len(maps) != 3 {
			t.Fatalf("cores=%d: got %d templates, want 3", cores, len(maps))
		}
		for _, m := range maps {
			for i, slot := range m.Slots {
				if slot < 0 || slot >= cores {
					t.Errorf("cores=%d mapping %q slot[%d]=%d out of range", cores, m.Name, i, slot)
				}
			}
		}
	}
	// The 1-core half-chip template must fall back to pinning core 0.
	for i, slot := range manycoreMappings(1, 4)[2].Slots {
		if slot != 0 {
			t.Errorf("1-core half-chip slot[%d]=%d, want 0", i, slot)
		}
	}
}

func TestRunRowsMatchesNames(t *testing.T) {
	cfg := quickCfg()
	for _, id := range ExperimentNames() {
		rows, err := RunRowsCtx(context.Background(), cfg, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rows == nil {
			t.Errorf("%s returned nil rows", id)
		}
	}
	if _, err := RunRowsCtx(context.Background(), cfg, "nope"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestConcurrentShapes(t *testing.T) {
	rows, err := Concurrent(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 1 mix x 3 policies in quick mode
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	byPol := map[string]ConcurrentRow{}
	for _, r := range rows {
		if !strings.Contains(r.Mix, "+") {
			t.Errorf("mix name %q should join apps with +", r.Mix)
		}
		byPol[r.Policy] = r
	}
	if byPol[PolicyProposed].AvgTempC >= byPol[PolicyLinuxOndemand].AvgTempC {
		t.Error("proposed should run the concurrent mix cooler than Linux")
	}
	if byPol[PolicyProposed].AgingMTTF <= byPol[PolicyLinuxOndemand].AgingMTTF {
		t.Error("proposed should improve aging MTTF on the concurrent mix")
	}
	if out := FormatConcurrent(rows); !strings.Contains(out, "mix") {
		t.Error("FormatConcurrent incomplete")
	}
}

func TestSuiteShapes(t *testing.T) {
	rows, err := Suite(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 apps x 4 policies in quick mode
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.CombinedMTTF > r.CyclingMTTF || r.CombinedMTTF > r.AgingMTTF {
			t.Errorf("%s/%s: SOFR MTTF %.2f exceeds a component", r.App, r.Policy, r.CombinedMTTF)
		}
	}
}

func TestNoiseStudyShapes(t *testing.T) {
	rows, err := NoiseStudy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	// Linux never reads the sensors: identical across noise levels.
	if rows[0].LinuxAgingMTTF != rows[1].LinuxAgingMTTF {
		t.Error("Linux results should be noise-independent")
	}
	if out := FormatNoiseStudy(rows); !strings.Contains(out, "noise") {
		t.Error("FormatNoiseStudy incomplete")
	}
}

func TestLibraryStudyShapes(t *testing.T) {
	rows, err := LibraryStudy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // 1 scenario x 2 variants in quick mode
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	byVariant := map[string]LibraryRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	if byVariant["relearn"].Adoptions != 0 {
		t.Error("the paper's controller must never adopt")
	}
	lib := byVariant["library"]
	if lib.Adoptions == 0 {
		t.Error("the library variant should adopt at least once on A-B-A")
	}
	// The returning application benefits: cycling MTTF improves.
	if lib.CyclingMTTF <= byVariant["relearn"].CyclingMTTF {
		t.Errorf("library cycling MTTF %.2f should beat relearn %.2f",
			lib.CyclingMTTF, byVariant["relearn"].CyclingMTTF)
	}
	if out := FormatLibraryStudy(rows); !strings.Contains(out, "adoptions") {
		t.Error("FormatLibraryStudy incomplete")
	}
}

func TestSuiteContinuesPastFailingCells(t *testing.T) {
	// A max-sim-time of one second fails every cell; each sequential runner
	// must attempt all of them and report the failures jointly instead of
	// aborting on the first.
	cfg := quickCfg()
	cfg.Run.MaxSimS = 1
	ctx := context.Background()
	for _, tc := range []struct {
		id  string
		run func() (int, error)
	}{
		{"suite", func() (int, error) { rows, err := Suite(ctx, cfg); return len(rows), err }},
		{"table2", func() (int, error) { rows, err := Table2(ctx, cfg); return len(rows), err }},
		{"concurrent", func() (int, error) { rows, err := Concurrent(ctx, cfg); return len(rows), err }},
	} {
		t.Run(tc.id, func(t *testing.T) {
			n, err := tc.run()
			if err == nil {
				t.Fatal("expected joined per-cell errors")
			}
			if n != 0 {
				t.Errorf("got %d rows, want 0 when every cell fails", n)
			}
			cells, _, _ := Cells(cfg, tc.id)
			for _, c := range cells {
				if !strings.Contains(err.Error(), c.Key) {
					t.Errorf("joined error should name cell %s: %v", c.Key, err)
				}
			}
		})
	}
}

func TestRunCellsContinuesPastPanic(t *testing.T) {
	// A panicking cell fails like an erroring one: the sequential executor
	// runs the cells after it and names the cell and the panic value.
	cells := []Cell{
		{Key: "ok", Run: func(context.Context) (any, error) { return 1, nil }},
		{Key: "panicky", Run: func(context.Context) (any, error) { panic("kaboom") }},
		{Key: "ok2", Run: func(context.Context) (any, error) { return 2, nil }},
	}
	rows, err := RunCells(context.Background(), cells, AssembleAs[int])
	if got := rows.([]int); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("rows = %v, want [1 2]", got)
	}
	if err == nil || !strings.Contains(err.Error(), "panicky") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error %v should name cell panicky and the panic kaboom", err)
	}
}

// TestRunCellsSharedRuns: the sequential executor runs a shared run once
// and maps its row to every cell sharing it; a failed run fails its sharing
// cells with an error naming both keys, and a cancelled run leaves them
// skipped.
func TestRunCellsSharedRuns(t *testing.T) {
	runs := 0
	double := func(r any) any { return 2 * r.(int) }
	cells := []Cell{
		{Key: "a", Run: func(context.Context) (any, error) { runs++; return 1, nil }},
		{Key: "a2", Shares: &SharedRun{Cell: 0, Row: double}},
		{Key: "b", Run: func(context.Context) (any, error) { return nil, errors.New("boom") }},
		{Key: "b2", Shares: &SharedRun{Cell: 2, Row: double}},
	}
	rows, err := RunCells(context.Background(), cells, AssembleAs[int])
	if got := rows.([]int); runs != 1 || !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("rows = %v after %d runs of a, want [1 2] after 1", got, runs)
	}
	if err == nil || !strings.Contains(err.Error(), "b2: shared run b failed") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error %v should name b2, b and the cause", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cells[0].Run = func(ctx context.Context) (any, error) { cancel(); return nil, ctx.Err() }
	rows, err = RunCells(ctx, cells[:2], AssembleAs[int])
	if got := rows.([]int); len(got) != 0 || !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "a2") {
		t.Errorf("cancelled run: rows %v, err %v; want no rows and only context.Canceled", got, err)
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := quickCfg()
	if rows, err := Suite(ctx, cfg); !errors.Is(err, context.Canceled) || len(rows) != 0 {
		t.Errorf("Suite: rows=%d err=%v, want no rows and context.Canceled", len(rows), err)
	}
	if _, err := Table2(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("Table2: %v, want context.Canceled", err)
	}
	if _, err := SeedStudy(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("SeedStudy: %v, want context.Canceled", err)
	}
	if _, err := Concurrent(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("Concurrent: %v, want context.Canceled", err)
	}
}

func TestCellsMatchSequentialRunners(t *testing.T) {
	// Executing every experiment's cell plan in order must reproduce the
	// sequential runner's rows bit for bit — the invariant the pooled job
	// service relies on — and every cell row must survive the JSON round
	// trip that journal recovery and cluster completions put it through.
	// The experiments run in parallel, as the job pool runs cells, which
	// also lets the race detector see them side by side. The sequential rows
	// are pinned too: each experiment's bytes as `thermsim -quick -json <id>`
	// writes them must hash to the digest in testdata/digests.json, so a
	// change that moves every execution path the same way still fails here.
	cfg := quickCfg()
	ctx := context.Background()
	pins := golden.Open(t, "testdata/digests.json")
	for _, id := range ExperimentNames() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq, err := RunRowsCtx(ctx, cfg, id)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			enc := json.NewEncoder(&out)
			enc.SetIndent("", " ")
			if err := enc.Encode(map[string]any{id: seq}); err != nil {
				t.Fatal(err)
			}
			pins.Check(t, id, out.Bytes())
			cells, assemble, err := Cells(cfg, id)
			if err != nil {
				t.Fatal(err)
			}
			outs := make([]any, len(cells))
			for i, c := range cells {
				row, err := c.Run(ctx)
				if err != nil {
					t.Fatalf("%s: %v", c.Key, err)
				}
				outs[i] = row
				data, err := json.Marshal(row)
				if err != nil {
					t.Fatalf("%s: marshal: %v", c.Key, err)
				}
				back, err := DecodeCellRow(id, data)
				if err != nil {
					t.Fatalf("%s: %v", c.Key, err)
				}
				if !reflect.DeepEqual(back, row) {
					t.Errorf("%s: JSON round trip changed the row:\n%+v\n%+v", c.Key, back, row)
				}
			}
			if got := assemble(outs); !reflect.DeepEqual(got, seq) {
				t.Errorf("cells assembled in order differ from RunRowsCtx:\n%+v\n%+v", got, seq)
			}
		})
	}
}

func TestCellsSingleShotAndUnknown(t *testing.T) {
	cells, assemble, err := Cells(quickCfg(), "fig6")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("fig6 should be a single cell, got %d", len(cells))
	}
	rows, err := cells[0].Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if assemble([]any{rows}) == nil {
		t.Error("single-shot assembler dropped the rows")
	}
	if _, _, err := Cells(quickCfg(), "fig99"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestConfigSeedThreadsIntoProposedPolicy(t *testing.T) {
	// Distinct base seeds must change the proposed controller's explored
	// trajectory (different RNG stream) while identical seeds reproduce it.
	run := func(seed int64) SuiteRow {
		cfg := quickCfg()
		cfg.Seed = seed
		cells, _, err := Cells(cfg, "suite")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Key == "suite/face_rec/"+PolicyProposed {
				row, err := c.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return row.(SuiteRow)
			}
		}
		t.Fatal("suite planned no face_rec/proposed cell")
		return SuiteRow{}
	}
	a, b, c := run(7), run(7), run(99)
	if a != b {
		t.Errorf("same seed should reproduce: %+v vs %+v", a, b)
	}
	if a == c {
		t.Error("distinct seeds should explore distinct trajectories")
	}
}
