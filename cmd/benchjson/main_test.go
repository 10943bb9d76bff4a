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
	results, h, err := parse(strings.NewReader(hostBench), nil, nil)
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
	for _, path := range []string{withHost, legacy} {
		var report bytes.Buffer
		if !compareBaseline(&report, path, results, h, 0.2, false) {
			t.Errorf("%s: compare failed:\n%s", filepath.Base(path), report.String())
		}
		if out := report.String(); strings.Contains(out, "  "+hostKey+" ") || !strings.Contains(out, "1 benchmark(s) within") {
			t.Errorf("%s: report compared the host entry or missed the benchmark:\n%s", filepath.Base(path), out)
		}
	}
	base, baseHost, err := decodeSummary(summary.Bytes())
	if err != nil || baseHost == nil || *baseHost != want || len(base) != 1 {
		t.Errorf("decodeSummary = %v, %+v, %v", base, baseHost, err)
	}
}
