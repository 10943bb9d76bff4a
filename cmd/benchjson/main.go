// Command benchjson converts `go test -bench` output into a machine-readable
// JSON summary: one object per benchmark, keyed by the benchmark's name
// (GOMAXPROCS suffix stripped), with ns/op and — when -benchmem was on —
// B/op and allocs/op.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH.json
//	benchjson -o BENCH.json results/bench.txt
//	benchjson -compare BENCH_pr4.json -threshold 0.2 results/bench.txt
//	benchjson -only ClusterDispatch -compare BENCH_pr6.json -threshold 0.05 -o BENCH_pr7.json results/bench.txt
//
// The raw text still flows to stdout, so benchjson drops into a pipeline
// without hiding the human-readable output. Benchmarks that appear more than
// once (e.g. -count > 1) keep their last measurement.
//
// With -compare, the parsed results are diffed against a previously written
// summary file: every benchmark present in both is checked, and the command
// exits nonzero if ns/op or allocs/op regressed by more than -threshold
// (fractional, default 0.20 = 20%). Benchmarks present on only one side are
// reported but never fail the run, so the baseline can lag the benchmark set.
//
// The summary also records the host the numbers were measured on, under the
// reserved key "host": the goos, goarch and cpu header lines of the bench
// output, the GOMAXPROCS suffix of the benchmark names and the Go version
// that ran benchjson. -compare skips that key (and loads baselines written
// before it existed), reporting both hosts next to the deltas.
//
// -only restricts the parsed set to benchmarks matching a regexp, so a gate
// can target one benchmark out of a full sweep. When -o and -compare are
// combined, each written result additionally records its ns/op delta against
// the baseline ("vs_base_ns_pct"), making the summary file itself the
// overhead record for that run; -report-only keeps the annotation and the
// delta report but never fails, for summary-producing runs that are not
// gates.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's measurements; pointers distinguish "not
// reported" (no -benchmem) from a literal zero.
type result struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// VsBaseNsPct is the ns/op delta against the -compare baseline, recorded
	// only when -o and -compare run together (e.g. +3.1 = 3.1% slower).
	VsBaseNsPct *float64 `json:"vs_base_ns_pct,omitempty"`
	// Metrics holds any custom b.ReportMetric units (e.g. "sims/s",
	// "agingMTTFgain_x") so a benchmark's headline numbers survive into the
	// summary file alongside the timing columns. Never gated on.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// hostKey is the reserved summary key holding the host metadata; benchmark
// names all start with "Benchmark", so it cannot collide with one.
const hostKey = "host"

// host identifies the machine and toolchain a summary was measured on.
type host struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Go         string `json:"go,omitempty"`
}

// String renders the host on one line for the comparison report.
func (h host) String() string {
	return fmt.Sprintf("%s/%s, %s, GOMAXPROCS=%d, %s", h.GOOS, h.GOARCH, h.CPU, h.GOMAXPROCS, h.Go)
}

// parseHeader records a `go test -bench` header line ("goos: linux",
// "cpu: ...") into h, reporting whether the line was one.
func (h *host) parseHeader(line string) bool {
	key, val, ok := strings.Cut(line, ": ")
	if !ok {
		return false
	}
	switch key {
	case "goos":
		h.GOOS = val
	case "goarch":
		h.GOARCH = val
	case "cpu":
		h.CPU = val
	default:
		return false
	}
	return true
}

func main() {
	out := flag.String("o", "", "write the JSON summary to this file (default stdout only)")
	compare := flag.String("compare", "", "baseline JSON summary to diff against; regressions beyond -threshold fail the run")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional regression in ns/op and allocs/op before -compare fails")
	only := flag.String("only", "", "regexp restricting which benchmarks are kept (matched against the name without the -GOMAXPROCS suffix)")
	reportOnly := flag.Bool("report-only", false, "with -compare, report and annotate deltas but never fail the run")
	gateNS := flag.Bool("gate-ns", false, "with -compare, fail only on ns/op regressions; allocs/op deltas are reported but never gate (for changes whose payload legitimately allocates)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go test -bench . -benchmem ./... | %s [-o BENCH.json] [-compare BASELINE.json [-threshold 0.2]] [FILE]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()

	in := io.Reader(os.Stdin)
	echo := true // piping mode passes the text through; file mode stays quiet
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		echo = false
	}

	var keep *regexp.Regexp
	if *only != "" {
		var err error
		if keep, err = regexp.Compile(*only); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -only:", err)
			os.Exit(1)
		}
	}

	var echoTo io.Writer
	if echo {
		echoTo = os.Stdout
	}
	results, h, err := parse(in, echoTo, keep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// Annotate before writing so the summary file records each benchmark's
	// overhead against the baseline, then gate after the file is on disk.
	compareOK := true
	if *compare != "" {
		compareOK = compareBaseline(os.Stderr, *compare, results, h, *threshold, *gateNS)
		if !compareOK && *reportOnly {
			fmt.Fprintln(os.Stderr, "benchjson: -report-only — regression reported above, not gating")
			compareOK = true
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		writeSummary(f, results, h)
		f.Close()
	} else if *compare == "" {
		if echo {
			// Raw text already went to stdout; don't interleave JSON with it.
			fmt.Fprintln(os.Stderr, "benchjson: no -o file; JSON summary suppressed in pipe mode")
			return
		}
		writeSummary(os.Stdout, results, h)
	}

	if !compareOK {
		os.Exit(1)
	}
}

// parse reads `go test -bench` output, echoing every line to echo when it is
// non-nil, and returns the benchmarks kept by keep (all when nil) with the
// host they ran on. The Go version is benchjson's own: `make bench` runs it
// with the toolchain that ran the benchmarks.
func parse(in io.Reader, echo io.Writer, keep *regexp.Regexp) (map[string]result, host, error) {
	results := map[string]result{}
	h := host{Go: runtime.Version()}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		if h.parseHeader(line) {
			continue
		}
		name, r, ok := parseBenchLine(line)
		if ok && (keep == nil || keep.MatchString(name)) {
			results[name] = r
			if _, procs := splitProcs(strings.Fields(line)[0]); procs > 0 {
				h.GOMAXPROCS = procs
			}
		}
	}
	return results, h, sc.Err()
}

// writeSummary encodes the results map, plus the host under hostKey, as
// indented JSON.
func writeSummary(w io.Writer, results map[string]result, h host) {
	out := make(map[string]any, len(results)+1)
	for name, r := range results {
		out[name] = r
	}
	out[hostKey] = h
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	// encoding/json sorts map keys, so summary files diff cleanly across runs.
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// compareBaseline diffs results against the baseline summary file and reports
// per-benchmark deltas, annotating each overlapping entry in results with its
// ns/op delta (VsBaseNsPct). It returns false if any benchmark present in
// both regressed beyond the threshold on ns/op or — unless nsOnly — on
// allocs/op. The baseline's host entry is reported, never compared.
func compareBaseline(w io.Writer, path string, results map[string]result, h host, threshold float64, nsOnly bool) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(w, "benchjson:", err)
		return false
	}
	base, baseHost, err := decodeSummary(data)
	if err != nil {
		fmt.Fprintf(w, "benchjson: parsing %s: %v\n", path, err)
		return false
	}
	if baseHost != nil {
		fmt.Fprintf(w, "benchjson: baseline host: %v\n", *baseHost)
	} else {
		fmt.Fprintln(w, "benchjson: baseline host: not recorded")
	}
	fmt.Fprintf(w, "benchjson: this host:     %v\n", h)
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	compared := 0
	fmt.Fprintf(w, "benchjson: comparing %d benchmark(s) against %s (threshold %+.0f%%)\n",
		len(names), path, 100*threshold)
	for _, name := range names {
		b, inBase := base[name]
		r := results[name]
		if !inBase {
			fmt.Fprintf(w, "  %-40s new benchmark, no baseline — skipped\n", name)
			continue
		}
		compared++
		if b.NsPerOp > 0 {
			pct := 100 * (r.NsPerOp - b.NsPerOp) / b.NsPerOp
			r.VsBaseNsPct = &pct
			results[name] = r
		}
		line := fmt.Sprintf("  %-40s ns/op %s", name, deltaStr(b.NsPerOp, r.NsPerOp))
		bad := regressed(b.NsPerOp, r.NsPerOp, threshold)
		if b.AllocsPerOp != nil && r.AllocsPerOp != nil {
			line += fmt.Sprintf("  allocs/op %s", deltaStr(*b.AllocsPerOp, *r.AllocsPerOp))
			bad = bad || (!nsOnly && regressed(*b.AllocsPerOp, *r.AllocsPerOp, threshold))
		}
		if bad {
			line += "  REGRESSION"
			ok = false
		}
		fmt.Fprintln(w, line)
	}
	if compared == 0 {
		fmt.Fprintln(w, "benchjson: no benchmark overlapped the baseline — nothing compared")
		return false
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: FAIL — regression beyond %.0f%% vs %s\n", 100*threshold, path)
	} else {
		fmt.Fprintf(w, "benchjson: OK — %d benchmark(s) within %.0f%% of %s\n", compared, 100*threshold, path)
	}
	return ok
}

// decodeSummary parses a summary file into its benchmarks and, when the file
// records one, its host.
func decodeSummary(data []byte) (map[string]result, *host, error) {
	raw := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, nil, err
	}
	var h *host
	if msg, ok := raw[hostKey]; ok {
		h = new(host)
		if err := json.Unmarshal(msg, h); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", hostKey, err)
		}
		delete(raw, hostKey)
	}
	base := make(map[string]result, len(raw))
	for name, msg := range raw {
		var r result
		if err := json.Unmarshal(msg, &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		base[name] = r
	}
	return base, h, nil
}

// regressed reports whether the new value exceeds the old by more than the
// fractional threshold. A zero/negative old value can't regress (nothing to
// be slower than for allocs already at 0 only if new is also 0).
func regressed(old, new, threshold float64) bool {
	if old <= 0 {
		return new > 0
	}
	return new > old*(1+threshold)
}

// deltaStr formats "old -> new (+x%)".
func deltaStr(old, new float64) string {
	if old <= 0 {
		return fmt.Sprintf("%.0f -> %.0f", old, new)
	}
	return fmt.Sprintf("%.0f -> %.0f (%+.1f%%)", old, new, 100*(new-old)/old)
}

// splitProcs splits the -GOMAXPROCS suffix off a benchmark name, returning
// 0 procs when the name carries none.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 0
}

// parseBenchLine extracts one "BenchmarkName-N  iters  X ns/op [Y B/op  Z
// allocs/op]" line; anything else reports ok = false.
func parseBenchLine(line string) (string, result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", result{}, false
	}
	// Strip the -GOMAXPROCS suffix so keys are stable across machines.
	name, _ := splitProcs(fields[0])
	var r result
	var seen bool
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		case "MB/s":
			// Throughput from b.SetBytes; not a benchmark-authored metric.
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[fields[i+1]] = v
		}
	}
	return name, r, seen
}
