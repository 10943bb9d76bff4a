// Command benchjson converts `go test -bench` output into a machine-readable
// JSON summary and checks it against the repository's benchmark gate table.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH.json
//	benchjson -compare BENCH_baseline.json -o BENCH.json results/bench.txt
//	benchjson -ci -compare BENCH_baseline.json results/bench-smoke.txt
//
// The summary holds one object per benchmark, keyed by the benchmark's name
// (GOMAXPROCS suffix stripped), with ns/op, B/op and allocs/op when
// -benchmem was on, and any custom b.ReportMetric units. A benchmark measured
// more than once (-count N) records the median of each metric. The raw text
// still flows to stdout, so benchjson drops into a pipeline without hiding
// the human-readable output.
//
// The summary also records the host the numbers were measured on, under the
// reserved key "host": the goos, goarch and cpu header lines of the bench
// output, the GOMAXPROCS suffix of the benchmark names and the Go version
// that ran benchjson.
//
// With -compare, benchjson reports every benchmark's change against a
// baseline summary and checks each row of the gate table (gate.go) against
// it, exiting nonzero if a row fails. -ci checks only the rows marked for
// ci, which `make bench-smoke` runs on a one-iteration pass; -report-only
// reports the verdict without failing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
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
	compare := flag.String("compare", "", "baseline JSON summary to check the gate table against; a failing row fails the run")
	reportOnly := flag.Bool("report-only", false, "with -compare, report the changes and the gate verdict but never fail")
	ciOnly := flag.Bool("ci", false, "with -compare, check only the gate table's ci rows")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go test -bench . -benchmem ./... | %s [-o BENCH.json] [-compare BASELINE.json [-ci] [-report-only]] [FILE]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()

	in := io.Reader(os.Stdin)
	var echo io.Writer = os.Stdout // piping mode passes the text through; file mode stays quiet
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		echo = nil
	}

	results, h, err := parse(in, echo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		writeSummary(f, results, h)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	} else if *compare == "" {
		if echo != nil {
			// Raw text already went to stdout; don't interleave JSON with it.
			fmt.Fprintln(os.Stderr, "benchjson: no -o file; JSON summary suppressed in pipe mode")
			return
		}
		writeSummary(os.Stdout, results, h)
	}

	if *compare != "" && !compareBaseline(os.Stderr, *compare, results, h, gates, *ciOnly) {
		if *reportOnly {
			fmt.Fprintln(os.Stderr, "benchjson: -report-only: the failing rows above do not fail this run")
			return
		}
		os.Exit(1)
	}
}

// parse reads `go test -bench` output, echoing every line to echo when it is
// non-nil, and returns each benchmark's measurements, repeated ones reduced
// to their median, with the host they ran on. The Go version is benchjson's
// own: `make bench` runs it with the toolchain that ran the benchmarks.
func parse(in io.Reader, echo io.Writer) (map[string]result, host, error) {
	runs := map[string][]result{}
	h := host{Go: runtime.Version()}
	// pending is a benchmark whose name line carried no measurements: one
	// that logs while it runs prints its result on a later line.
	pending := ""
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
		var name string
		var r result
		var ok bool
		if strings.HasPrefix(line, "Benchmark") {
			pending = strings.Fields(line)[0]
			name, r, ok = parseBenchLine(line)
		} else if pending != "" {
			name, _ = splitProcs(pending)
			r, ok = measurements(strings.Fields(line))
		}
		if !ok {
			continue
		}
		runs[name] = append(runs[name], r)
		if _, procs := splitProcs(pending); procs > 0 {
			h.GOMAXPROCS = procs
		}
		pending = ""
	}
	results := make(map[string]result, len(runs))
	for name, rs := range runs {
		results[name] = median(rs)
	}
	return results, h, sc.Err()
}

// median reduces repeated measurements of one benchmark to the median of
// each metric.
func median(rs []result) result {
	var ns, bytes, allocs []float64
	metrics := map[string][]float64{}
	for _, r := range rs {
		ns = append(ns, r.NsPerOp)
		if r.BytesPerOp != nil {
			bytes = append(bytes, *r.BytesPerOp)
		}
		if r.AllocsPerOp != nil {
			allocs = append(allocs, *r.AllocsPerOp)
		}
		for unit, v := range r.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	m := result{NsPerOp: med(ns)}
	if len(bytes) > 0 {
		v := med(bytes)
		m.BytesPerOp = &v
	}
	if len(allocs) > 0 {
		v := med(allocs)
		m.AllocsPerOp = &v
	}
	for unit, vs := range metrics {
		if m.Metrics == nil {
			m.Metrics = map[string]float64{}
		}
		m.Metrics[unit] = med(vs)
	}
	return m
}

// med returns the median of xs, the mean of the middle two for an even
// count. It sorts xs in place.
func med(xs []float64) float64 {
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[mid-1] + xs[mid]) / 2
	}
	return xs[mid]
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

// compareBaseline reads the baseline summary at path, reports both hosts
// and, unless ciOnly, every benchmark's change against it, then checks rows
// (only the ci rows when ciOnly) and returns whether all of them held.
func compareBaseline(w io.Writer, path string, run map[string]result, h host, rows []gate, ciOnly bool) bool {
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
		fmt.Fprintf(w, "benchjson: baseline host: %v (%s)\n", *baseHost, path)
	} else {
		fmt.Fprintf(w, "benchjson: baseline host: not recorded (%s)\n", path)
	}
	fmt.Fprintf(w, "benchjson: this host:     %v\n", h)
	if !ciOnly {
		report(w, run, base)
	}
	return check(w, rows, run, base, ciOnly)
}

// report lists every benchmark of the run and the baseline with its ns/op
// and allocs/op change. It gates nothing: the table's rows do.
func report(w io.Writer, run, base map[string]result) {
	fmt.Fprintf(w, "benchjson: %d benchmark(s) in this run, %d in the baseline\n", len(run), len(base))
	for _, name := range union(run, base, nil) {
		r, inRun := run[name]
		b, inBase := base[name]
		switch {
		case !inBase:
			fmt.Fprintf(w, "  %-44s no baseline entry\n", name)
		case !inRun:
			fmt.Fprintf(w, "  %-44s not in this run\n", name)
		default:
			line := fmt.Sprintf("  %-44s ns/op %s", name, deltaStr(b.NsPerOp, r.NsPerOp))
			if b.AllocsPerOp != nil && r.AllocsPerOp != nil {
				line += "  allocs/op " + deltaStr(*b.AllocsPerOp, *r.AllocsPerOp)
			}
			fmt.Fprintln(w, line)
		}
	}
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

// deltaStr formats "old -> new (+x%)".
func deltaStr(old, new float64) string {
	s := num(old) + " -> " + num(new)
	if old > 0 {
		s += fmt.Sprintf(" (%+.1f%%)", 100*(new-old)/old)
	}
	return s
}

// num formats a measurement as go test printed it.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

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
	// Strip the -GOMAXPROCS suffix so keys are stable across machines.
	name, _ := splitProcs(fields[0])
	r, ok := measurements(fields[1:])
	return name, r, ok
}

// measurements parses the fields after a benchmark's name: the iteration
// count, then value-unit pairs. ok is false unless they hold an ns/op.
func measurements(fields []string) (result, bool) {
	var r result
	if len(fields) < 3 {
		return r, false
	}
	if _, err := strconv.Atoi(fields[0]); err != nil {
		return r, false
	}
	var seen bool
	for i := 1; i+1 < len(fields); i += 2 {
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
	return r, seen
}
