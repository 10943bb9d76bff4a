package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain keeps the replayed packages' logs out of the test output.
func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	os.Exit(m.Run())
}

// testBench builds thermserved from the enclosing repository into a
// temporary directory and returns a bench rooted at the repository.
func testBench(t *testing.T) *bench {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "thermserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/thermserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build thermserved: %v\n%s", err, out)
	}
	return &bench{root: root, build: tmp, tmp: tmp, serverBin: bin, nproc: runtime.NumCPU()}
}

func testRefs(t *testing.T) references {
	t.Helper()
	refs, err := loadReferences(referencePath(".."))
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestSmoke runs one unit of every workload against the current code and
// checks its outputs against the references, then replays the workload's
// cells in-process; a change to any API the harness drives fails here.
func TestSmoke(t *testing.T) {
	b := testBench(t)
	refs := testRefs(t)
	const seed = 5
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			if err := b.selectVariant(seed, refs.checks(def.refName)); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			sys, err := def.start(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			j := sys.unit(ctx, true)
			snap, snapErr := sys.snapshot(ctx)
			sys.stop(true)
			if snapErr != nil {
				t.Fatal(snapErr)
			}
			if len(snap.front) == 0 || len(snap.sim) == 0 {
				t.Error("empty metrics snapshot")
			}
			if !j.ok {
				t.Errorf("job %s: %s", j.key, j.err)
			}
			if len(j.spans) == 0 {
				t.Errorf("job %s: traced unit collected no spans", j.key)
			}
			if def.name == "tournament-cluster" {
				return // same cells and replay as tournament
			}
			plan, err := def.plan(b)
			if err != nil {
				t.Fatal(err)
			}
			plan.cells = plan.cells[:min(len(plan.cells), 4)]
			plan.digest = nil // a subset of cells has no reference
			rep, err := replay(b, plan, b.nproc)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range rep.mismatches {
				t.Error(m)
			}
			for _, k := range []string{"thermal.step_ns", "platform.step_ns", "sim.ns_per_tick", "reliability.push_ns"} {
				if !(rep.metrics[k] > 0) {
					t.Errorf("%s = %v, want > 0", k, rep.metrics[k])
				}
			}
		})
	}
}

// TestCorruptedReferenceCaught shows that an output differing from its
// reference fails the job, and with it the run.
func TestCorruptedReferenceCaught(t *testing.T) {
	b := testBench(t)
	refs := testRefs(t)
	def, _ := lookupWorkload("tournament")
	const seed = 2
	v := variantOf(seed)
	run := func(refs references) jobSample {
		if err := b.selectVariant(seed, refs.checks("tournament")); err != nil {
			t.Fatal(err)
		}
		sys, err := def.start(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.stop(true)
		return sys.unit(context.Background(), false)
	}
	if j := run(refs); !j.ok {
		t.Fatalf("intact reference: job failed: %s", j.err)
	}
	ref := []byte(refs["tournament"][strconv.Itoa(v)][leaderboardKey])
	ref[0] ^= 1 // still hex-shaped, one bit off
	bad := references{"tournament": {strconv.Itoa(v): {leaderboardKey: string(ref)}}}
	j := run(bad)
	if j.ok || !strings.Contains(j.err, "differs from reference") {
		t.Fatalf("corrupted reference: ok=%v err=%q, want a digest mismatch", j.ok, j.err)
	}
	rec := &runRecord{}
	rec.addJobs([]jobSample{j})
	rec.E2E = floats{}
	if res := rec.result(); res.Correct || res.Failed != 1 {
		t.Fatalf("result with a mismatching job: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json in step with the
// workloads and metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) vs %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestHistQuantile(t *testing.T) {
	page := "h_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 6\nh_bucket{le=\"+Inf\"} 8\nh_sum 9\nh_count 8\n"
	before := parseProm("h_bucket{le=\"1\"} 0\nh_bucket{le=\"2\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 2\nh_count 2\n")
	bs, sum, n := histDelta(before, parseProm(page), "h", nil)
	if sum != 7 || n != 6 {
		t.Fatalf("delta sum/count = %v/%v, want 7/6", sum, n)
	}
	// Delta buckets: le=1 → 2, le=2 → 4, +Inf → 6; the median (rank 3) is
	// halfway into the (1, 2] bucket.
	if q := histQuantile(0.5, bs); q != 1.5 {
		t.Fatalf("median = %v, want 1.5", q)
	}
}

// TestHostSpeedScaling checks the direction of the host-speed scaling: a
// window measured while the calibration slice took twice its reference time
// ran on a host half as fast, so its times halve and its rates double.
func TestHostSpeedScaling(t *testing.T) {
	w := window{wall: time.Second}
	for i := 0; i < 3; i++ {
		w.jobs = append(w.jobs, jobSample{ok: true, latency: 400 * time.Millisecond, cells: 10})
		w.cal = append(w.cal, calSample{wallMS: 2 * calRefWallMS, cpuMS: 2 * calRefCPUMS})
	}
	raw, got := rawE2EMetrics(w, 1), e2eMetrics(w, 1)
	for k, f := range map[string]float64{"job_latency_p50_ms": 0.5, "cells_per_s": 2, "cpu_ms_per_cell": 0.5, "setup_s": 1} {
		if want := raw[k] * f; math.Abs(got[k]-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %v, want %v (unscaled %v)", k, got[k], want, raw[k])
		}
	}
}
