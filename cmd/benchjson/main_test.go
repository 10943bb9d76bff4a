package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, r, ok := parseBenchLine("BenchmarkRunTraceOff-8   \t     100\t  11022338 ns/op\t  131072 B/op\t      52 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if name != "BenchmarkRunTraceOff" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", name)
	}
	if r.NsPerOp != 11022338 {
		t.Errorf("ns/op = %g", r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 131072 {
		t.Errorf("B/op = %v", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 52 {
		t.Errorf("allocs/op = %v", r.AllocsPerOp)
	}
}

func TestParseBenchLineCustomMetrics(t *testing.T) {
	_, r, ok := parseBenchLine("BenchmarkBatchCampaign/batched-8 \t 14 \t 77000000 ns/op \t 851 sims/s \t 4096 B/op \t 12 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Metrics["sims/s"] != 851 {
		t.Errorf("metrics = %v, want sims/s=851", r.Metrics)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 4096 {
		t.Errorf("B/op = %v (custom metric must not displace memory stats)", r.BytesPerOp)
	}
}

func TestParseBenchLineNoBenchmem(t *testing.T) {
	name, r, ok := parseBenchLine("BenchmarkStep-16 \t 504 \t 2230912 ns/op")
	if !ok || name != "BenchmarkStep" {
		t.Fatalf("parsed %q ok=%v", name, ok)
	}
	if r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Error("memory stats invented for a non-benchmem line")
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro/internal/sim\t12.3s",
		"BenchmarkBroken-8", // no measurements
		"",
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("parsed noise line %q", line)
		}
	}
}

func TestParseBenchLineKeepsNonNumericSuffix(t *testing.T) {
	name, _, ok := parseBenchLine("BenchmarkRun/trace-off 100 50 ns/op")
	if !ok || name != "BenchmarkRun/trace-off" {
		t.Errorf("name = %q ok=%v (non-GOMAXPROCS dash must survive)", name, ok)
	}
}

const hostBench = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor
BenchmarkSimRunProposed-2   	    2000	    570000 ns/op	   12000 B/op	      40 allocs/op
PASS
`

// TestHostRecordedAndSkippedByCompare checks that a summary records the bench
// header's host under the reserved key, and that -compare loads it (and a
// baseline written before the key existed) without comparing it.
func TestHostRecordedAndSkippedByCompare(t *testing.T) {
	results, h, err := parse(strings.NewReader(hostBench), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := host{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2, Go: runtime.Version()}
	if h != want {
		t.Errorf("host = %+v, want %+v", h, want)
	}
	if _, ok := results[hostKey]; ok || len(results) != 1 {
		t.Fatalf("results = %v, want only the benchmark", results)
	}

	dir := t.TempDir()
	var summary bytes.Buffer
	writeSummary(&summary, results, h)
	withHost := filepath.Join(dir, "with-host.json")
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(withHost, summary.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, []byte(`{"BenchmarkSimRunProposed": {"ns_per_op": 570000, "allocs_per_op": 40}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := []gate{{Bench: `.`, Metric: allocsPerOp, Threshold: 0.2}}
	for _, path := range []string{withHost, legacy} {
		var report bytes.Buffer
		if !compareBaseline(&report, path, results, h, rows, false) {
			t.Errorf("%s: compare failed:\n%s", filepath.Base(path), report.String())
		}
		if out := report.String(); strings.Contains(out, "  "+hostKey+" ") || !strings.Contains(out, "ok    BenchmarkSimRunProposed") {
			t.Errorf("%s: report compared the host entry or missed the benchmark:\n%s", filepath.Base(path), out)
		}
	}
	base, baseHost, err := decodeSummary(summary.Bytes())
	if err != nil || baseHost == nil || *baseHost != want || len(base) != 1 {
		t.Errorf("decodeSummary = %v, %+v, %v", base, baseHost, err)
	}
}

// measured is a result with the given ns/op and allocs/op.
func measured(ns, allocs float64) result { return result{NsPerOp: ns, AllocsPerOp: &allocs} }

// TestGateRows checks the gate table's verdicts: a row holds only while
// every benchmark it matches is on both sides and within its threshold.
func TestGateRows(t *testing.T) {
	base := map[string]result{
		"BenchmarkCampaign": measured(100, 1000),
		"BenchmarkKernel":   measured(20, 0),
		"BenchmarkOld":      measured(50, 5),
	}
	for _, tc := range []struct {
		name string
		row  gate
		run  map[string]result
		pass bool
	}{
		{"ns within threshold", gate{Bench: `^BenchmarkCampaign$`, Metric: nsPerOp, Threshold: 0.20},
			map[string]result{"BenchmarkCampaign": measured(119, 1000)}, true},
		{"ns regression", gate{Bench: `^BenchmarkCampaign$`, Metric: nsPerOp, Threshold: 0.20},
			map[string]result{"BenchmarkCampaign": measured(121, 1000)}, false},
		{"allocs within threshold", gate{Bench: `^BenchmarkCampaign$`, Metric: allocsPerOp, Threshold: 0.10},
			map[string]result{"BenchmarkCampaign": measured(500, 1100)}, true},
		{"allocs regression", gate{Bench: `^BenchmarkCampaign$`, Metric: allocsPerOp, Threshold: 0.10},
			map[string]result{"BenchmarkCampaign": measured(100, 1101)}, false},
		{"zero allocations stay zero", gate{Bench: `^BenchmarkKernel$`, Metric: allocsPerOp},
			map[string]result{"BenchmarkKernel": measured(40, 0)}, true},
		{"one allocation fails a zero row", gate{Bench: `^BenchmarkKernel$`, Metric: allocsPerOp},
			map[string]result{"BenchmarkKernel": measured(20, 1)}, false},
		{"row matches nothing", gate{Bench: `^BenchmarkGone$`, Metric: nsPerOp, Threshold: 1},
			map[string]result{"BenchmarkCampaign": measured(100, 1000)}, false},
		{"renamed benchmark", gate{Bench: `^Benchmark(Old|New)$`, Metric: nsPerOp, Threshold: 1},
			map[string]result{"BenchmarkNew": measured(50, 5)}, false},
		{"gated benchmark missing from the run", gate{Bench: `^Benchmark(Campaign|Old)$`, Metric: nsPerOp, Threshold: 1},
			map[string]result{"BenchmarkCampaign": measured(100, 1000)}, false},
		{"allocations not measured", gate{Bench: `^BenchmarkCampaign$`, Metric: allocsPerOp, Threshold: 1},
			map[string]result{"BenchmarkCampaign": {NsPerOp: 100}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := check(&out, []gate{tc.row}, tc.run, base, false); got != tc.pass {
				t.Errorf("check = %v, want %v:\n%s", got, tc.pass, out.String())
			}
		})
	}
	// -ci checks only the CI rows.
	rows := []gate{
		{Bench: `^BenchmarkGone$`, Metric: nsPerOp},
		{Bench: `^BenchmarkKernel$`, Metric: allocsPerOp, CI: true},
	}
	run := map[string]result{"BenchmarkKernel": measured(20, 0)}
	var out bytes.Buffer
	if !check(&out, rows, run, base, true) || check(&out, rows, run, base, false) {
		t.Errorf("with ciOnly only the CI row should be checked:\n%s", out.String())
	}
}

// TestRepeatsReduceToMedian feeds three runs of one benchmark (-count 3), two
// of another, and one whose result line follows its own log output.
func TestRepeatsReduceToMedian(t *testing.T) {
	const text = `BenchmarkFig1-2   	  20	  60000000 ns/op	 5 sims/s	 1000 B/op	 919 allocs/op
BenchmarkFig1-2   	  20	  50000000 ns/op	 9 sims/s	 3000 B/op	 921 allocs/op
BenchmarkFig1-2   	  20	  90000000 ns/op	 7 sims/s	 2000 B/op	 920 allocs/op
BenchmarkTick-2   	 1000	  10 ns/op
BenchmarkTick-2   	 1000	  20 ns/op
BenchmarkPooledSuite/workers=1-2          	2026/10/20 22:57:01 INFO job submitted component=pool
2026/10/20 22:57:02 INFO job finished component=pool
      24	  54211110 ns/op	 1419025 B/op	    6354 allocs/op
PASS
`
	results, _, err := parse(strings.NewReader(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	fig := results["BenchmarkFig1"]
	if fig.NsPerOp != 60000000 || *fig.AllocsPerOp != 920 || *fig.BytesPerOp != 2000 || fig.Metrics["sims/s"] != 7 {
		t.Errorf("Fig1 = %v ns/op, %v allocs/op, %v B/op, %v; want the medians 60000000, 920, 2000, sims/s 7",
			fig.NsPerOp, *fig.AllocsPerOp, *fig.BytesPerOp, fig.Metrics)
	}
	if tick := results["BenchmarkTick"]; tick.NsPerOp != 15 || tick.AllocsPerOp != nil {
		t.Errorf("Tick = %+v, want 15 ns/op, the mean of the middle two, and no allocs", tick)
	}
	if pooled, ok := results["BenchmarkPooledSuite/workers=1"]; !ok || pooled.NsPerOp != 54211110 || *pooled.AllocsPerOp != 6354 {
		t.Errorf("PooledSuite/workers=1 = %+v (found %v), want its result line after the log", pooled, ok)
	}
	if len(results) != 3 {
		t.Errorf("parsed %d benchmarks, want 3: %v", len(results), results)
	}
}

// TestGatesHoldOnBaseline checks the gate table against the committed
// baseline: every row compiles and matches a benchmark the baseline
// measured, so a row cannot fail ci or the sweep for want of one.
func TestGatesHoldOnBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	base, h, err := decodeSummary(data)
	if err != nil {
		t.Fatal(err)
	}
	if h == nil || h.CPU == "" || h.GOMAXPROCS == 0 {
		t.Errorf("baseline host = %+v, want the recording host", h)
	}
	var out bytes.Buffer
	if !check(&out, gates, base, base, false) {
		t.Errorf("the gate table fails on its own baseline:\n%s", out.String())
	}
}
