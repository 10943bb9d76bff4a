// Command perfbench is the repository's end-to-end benchmark. It drives the
// thermserved binary and the public package APIs through two closed-loop
// workloads (one client, one job in flight), checks every job's output
// against recorded reference digests, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer breakdown — as the last line of its output.
//
// The end-to-end times are expressed at a fixed reference host speed: after
// every job the benchmark times a fixed slice of its own CPU work
// (calibrate), and the window's latencies, rates and CPU times are scaled by
// how fast that slice ran against its reference time. A shared host's speed
// drifts by tens of percent between runs; the scaling cancels that drift and
// leaves the program's own speed. The unscaled values and the speed factors
// are kept in the run record.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload tournament --seed 1 --seconds 20 --trace 0
//
// Workloads: tournament and tournament-cluster (see BENCHMARK.json for why
// each exists). --seed selects the generated inputs;
// the same seed always yields the same inputs and outputs.
//
// Every run appends a record (host metadata, server flags, all metrics,
// sample counts, and for traced runs the tracing overhead) to
// <build>/records/runs.jsonl. -record-references regenerates
// perfbench/reference/digests.json from the current code.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// bench is one benchmark invocation's environment.
type bench struct {
	root, build, tmp string
	serverBin        string
	nproc            int
	// variant is the input variant the seed selects; a run's units rotate
	// through every variant starting here (see variantAt).
	variant int
	// docs is every variant's tournament document.
	docs [][]byte
	// checkFor returns the output check of one variant: it compares a job
	// output's digest with its reference.
	checkFor func(variant int) func(key, digest string) error
}

// warmup is how long a run exercises the system before timing, so heap
// growth and lazy set-up are not charged to the first timed jobs.
const warmup = 2 * time.Second

// runDeadline bounds a whole run, comfortably inside the 180 s limit.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload: tournament or tournament-cluster")
	seed := flag.Int64("seed", 1, "workload seed (selects the generated inputs)")
	seconds := flag.Int("seconds", 20, "length of the timed window, seconds")
	trace := flag.Int("trace", 0, "1 = traced run: report per-layer metrics")
	root := flag.String("root", ".", "repository root")
	build := flag.String("build", ".bench_build", "build directory holding bin/thermserved; scratch files and run records go here")
	record := flag.Bool("record-references", false, "regenerate the reference digests of every variant of -workload (comma-separated list) and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	b, cleanup, err := newBench(*root, *build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer cleanup()
	if err := logToFile(b.tmp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *record {
		if err := recordReferences(ctx, b, strings.Split(*workloadName, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	def, ok := lookupWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	refs, err := loadReferences(referencePath(b.root))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.selectVariant(*seed, refs.checks(def.refName)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec, err := runWorkload(ctx, b, def, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec.Seed = *seed
	if err := appendRecord(b.build, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
	}
	printReport(rec)
	out, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// newBench checks that the build produced the server binary and creates the
// run's scratch directory under the build directory.
func newBench(root, build string) (*bench, func(), error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	build, err = filepath.Abs(build)
	if err != nil {
		return nil, nil, err
	}
	b := &bench{root: root, build: build, serverBin: filepath.Join(build, "bin", "thermserved"), nproc: runtime.NumCPU()}
	if _, err := os.Stat(b.serverBin); err != nil {
		return nil, nil, fmt.Errorf("server binary: %w (run through perfbench/run.sh)", err)
	}
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, nil, err
	}
	if b.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, nil, err
	}
	return b, func() { os.RemoveAll(b.tmp) }, nil
}

// logToFile sends the logs of the packages the replay drives to a file in the run's
// scratch directory, as the servers' logs go to theirs.
func logToFile(dir string) error {
	f, err := os.CreateTemp(dir, "perfbench-*.log")
	if err != nil {
		return err
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(f, nil)))
	return nil
}

func variantOf(seed int64) int {
	return int(uint64(seed) % numVariants)
}

// selectVariant derives the seed's inputs and installs the output check.
func (b *bench) selectVariant(seed int64, checkFor func(variant int) func(key, digest string) error) error {
	b.variant = variantOf(seed)
	b.checkFor = checkFor
	if b.docs != nil {
		return nil
	}
	for v := 0; v < numVariants; v++ {
		doc, err := tournamentDoc(b.root, v)
		if err != nil {
			return err
		}
		b.docs = append(b.docs, doc)
	}
	return nil
}

// variantAt is the input variant of a system's i-th unit of work. Units
// rotate through every variant starting at the seed's, so each run averages
// the same mix of inputs while the seed still fixes which unit sees which.
func (b *bench) variantAt(i int) int { return (b.variant + i) % numVariants }

// window is one timed measurement of a running system.
type window struct {
	jobs          []jobSample
	wall          time.Duration
	before, after snapshot
	rssMB         float64
	// stealFrac is the share of the host's CPU time the hypervisor took
	// during the window: it explains a slow run without being a metric.
	stealFrac float64
	// cal holds the calibration slice run after each job.
	cal []calSample
}

// measure runs closed-loop units until d has elapsed (finishing the unit in
// flight) and reads the server-side state at both edges.
func measure(ctx context.Context, sys system, d time.Duration, traced bool) (window, error) {
	var w window
	var err error
	if w.before, err = sys.snapshot(ctx); err != nil {
		return w, err
	}
	total0, steal0 := hostCPUTicks()
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		w.jobs = append(w.jobs, sys.unit(ctx, traced))
		w.cal = append(w.cal, calibrate(runtime.NumCPU()))
	}
	w.wall = time.Since(start)
	for _, c := range w.cal {
		w.wall -= time.Duration(c.wallMS * float64(time.Millisecond))
	}
	total1, steal1 := hostCPUTicks()
	if total1 > total0 {
		w.stealFrac = (steal1 - steal0) / (total1 - total0)
	}
	if err := ctx.Err(); err != nil {
		return w, err
	}
	if w.after, err = sys.snapshot(ctx); err != nil {
		return w, err
	}
	w.rssMB = sys.peakRSSMB()
	return w, nil
}

// runWorkload brings the system up def.setupReps times (setup_s is the
// median; only the last instance is measured), warms it up,
// measures one untraced window and, for a traced run, one traced window and
// the in-process replay.
func runWorkload(ctx context.Context, b *bench, def workloadDef, d time.Duration, traced bool) (*runRecord, error) {
	rec := &runRecord{Workload: def.name, Variant: b.variant, Trace: traced, Seconds: d.Seconds(), Meta: hostMeta(b, def)}
	var sys system
	for i := 0; i < def.setupReps; i++ {
		t := time.Now()
		s, err := def.start(ctx, b)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t).Seconds())
		if i < def.setupReps-1 {
			s.stop(false)
		} else {
			sys = s
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			sys.stop(true)
		}
	}()
	warm, err := measure(ctx, sys, warmup, false)
	if err != nil {
		return nil, err
	}
	if traced {
		// A traced run spends half its window untraced and half traced, so
		// it takes as long as an untraced run and yields the overhead.
		d /= 2
	}
	untraced, err := measure(ctx, sys, d, false)
	if err != nil {
		return nil, err
	}
	rec.addJobs(warm.jobs)
	rec.addJobs(untraced.jobs)
	rec.E2E = e2eMetrics(untraced, median(rec.SetupS))
	rec.E2ERaw = rawE2EMetrics(untraced, median(rec.SetupS))
	rec.WallSpeed, rec.CPUSpeed = hostSpeed(untraced.cal)
	rec.StealFrac = untraced.stealFrac
	for _, c := range untraced.cal {
		rec.CalWallMS = append(rec.CalWallMS, c.wallMS)
		rec.CalCPUMS = append(rec.CalCPUMS, c.cpuMS)
	}
	rec.LatencyMS = okLatencies(untraced.jobs)
	rec.Samples = len(rec.LatencyMS)
	if traced {
		tw, err := measure(ctx, sys, d, true)
		if err != nil {
			return nil, err
		}
		rec.addJobs(tw.jobs)
		stopped = true
		sys.stop(true)
		rec.Traced = e2eMetrics(tw, median(rec.SetupS))
		layers := windowLayers(tw, def, b.nproc)
		plan, err := def.plan(b)
		if err != nil {
			return nil, fmt.Errorf("replay plan: %w", err)
		}
		plan.speedup = def.batched
		rep, err := replay(b, plan, b.nproc)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rec.Mismatches = append(rec.Mismatches, rep.mismatches...)
		for k, v := range rep.metrics {
			layers[k] = v
		}
		dm, err := durableLayers(filepath.Join(b.tmp, "durable"), b.docs[b.variant], rep.rows, lastSpans(tw.jobs))
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		for k, v := range dm {
			layers[k] = v
		}
		group := 1.0
		if g, ok := layers["sim.batch_group_size"]; ok && def.batched {
			group = g
		}
		layers["coverage.sim_run_explains_cell_run"] = ratio(layers["sim.run_ms"]*group, layers["service.cell_run_ms_p50"])
		for _, m := range endToEnd {
			if m.name != "setup_s" {
				layers["trace_overhead."+m.name] = rec.Traced[m.name] - rec.E2E[m.name]
			}
		}
		rec.Layers, rec.Absent = completeLayers(layers)
	}
	if len(rec.Errors) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed jobs, first: %s\n", len(rec.Errors), rec.Errors[0])
	}
	return rec, nil
}

// lastSpans is the span trace of the window's last successful job.
func lastSpans(jobs []jobSample) []telemetry.Span {
	for i := len(jobs) - 1; i >= 0; i-- {
		if jobs[i].ok {
			return jobs[i].spans
		}
	}
	return nil
}

// okLatencies is the latency in ms of every successful job.
func okLatencies(jobs []jobSample) []float64 {
	var xs []float64
	for _, j := range jobs {
		if j.ok {
			xs = append(xs, ms(j.latency))
		}
	}
	return xs
}

// metricDef is one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, measured with
// tracing off; the order is the report order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p75_ms", "ms"},
	{"cells_per_s", "1/s"},
	{"sim_s_per_host_s", "s/s"},
	{"cpu_ms_per_cell", "ms"},
	{"peak_rss_mb", "MiB"},
	{"job_ok_frac", "frac"},
}

// e2eMetrics derives the end-to-end metrics of one window, with the times
// scaled to the reference host speed (see hostSpeed); setup_s stays as
// measured.
func e2eMetrics(w window, setupS float64) floats {
	m := rawE2EMetrics(w, setupS)
	wallF, cpuF := hostSpeed(w.cal)
	for _, k := range []string{"job_latency_p50_ms", "job_latency_p75_ms"} {
		m[k] *= wallF
	}
	for _, k := range []string{"cells_per_s", "sim_s_per_host_s"} {
		m[k] /= wallF
	}
	m["cpu_ms_per_cell"] *= cpuF
	return m
}

// Reference times of one calibration slice on two vCPUs of an idle Intel Xeon
// VM: the host speed the end-to-end times are expressed at.
const (
	calRefWallMS = 10.2
	calRefCPUMS  = 18.2
)

// hostSpeed is the host's speed during a window relative to the reference
// (above 1 when faster), from the calibration slices run between its jobs:
// the wall-time factor scales latencies and rates (it falls when the
// hypervisor takes CPU time or neighbours contend for caches), the CPU-time
// factor scales CPU time (it falls only with contention, as stolen time is
// not charged to processes). A time measured on a host twice as fast as the
// reference reads twice as long once scaled. Medians keep a slice hit by a
// one-off pause from moving the factor.
func hostSpeed(cal []calSample) (wallF, cpuF float64) {
	wall := make([]float64, len(cal))
	cpu := make([]float64, len(cal))
	for i, c := range cal {
		wall[i], cpu[i] = c.wallMS, c.cpuMS
	}
	return calRefWallMS / median(wall), calRefCPUMS / median(cpu)
}

// rawE2EMetrics derives the end-to-end metrics of one window as measured.
func rawE2EMetrics(w window, setupS float64) floats {
	lat := okLatencies(w.jobs)
	var cells int
	for _, j := range w.jobs {
		if j.ok {
			cells += j.cells
		}
	}
	wall := w.wall.Seconds()
	return floats{
		"setup_s":            setupS,
		"job_latency_p50_ms": median(lat),
		"job_latency_p75_ms": percentile(lat, tailQuantile),
		"cells_per_s":        float64(cells) / wall,
		"sim_s_per_host_s":   counterDelta(w.before.sim, w.after.sim, "sim_simulated_seconds_total", nil) / wall,
		"cpu_ms_per_cell":    1000 * (w.after.cpuS - w.before.cpuS) / float64(cells),
		"peak_rss_mb":        w.rssMB,
		"job_ok_frac":        float64(len(lat)) / float64(len(w.jobs)),
	}
}

// runRecord is everything one run measured; result() is the line the
// driver reads.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Variant    int            `json:"variant"`
	Trace      bool           `json:"trace"`
	Seconds    float64        `json:"seconds"`
	Meta       map[string]any `json:"meta"`
	SetupS     []float64      `json:"setup_s_samples"`
	StealFrac  float64        `json:"host_steal_frac"`
	CalWallMS  []float64      `json:"calibration_wall_ms"`
	CalCPUMS   []float64      `json:"calibration_cpu_ms"`
	Samples    int            `json:"latency_samples"`
	LatencyMS  []float64      `json:"latency_ms"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Errors     []string       `json:"errors,omitempty"`
	Mismatches []string       `json:"replay_mismatches,omitempty"`
	E2E        floats         `json:"end_to_end"`
	E2ERaw     floats         `json:"end_to_end_unscaled"`
	WallSpeed  float64        `json:"host_speed_wall"`
	CPUSpeed   float64        `json:"host_speed_cpu"`
	Traced     floats         `json:"end_to_end_traced,omitempty"`
	Layers     floats         `json:"per_layer,omitempty"`
	Absent     []string       `json:"per_layer_absent,omitempty"`
	Time       time.Time      `json:"time"`
}

func (r *runRecord) addJobs(jobs []jobSample) {
	for _, j := range jobs {
		r.Attempted++
		if !j.ok {
			r.Failed++
			r.Errors = append(r.Errors, j.err)
		}
	}
}

// floats is a metric map whose non-finite values serialize as strings.
type floats map[string]float64

func (f floats) MarshalJSON() ([]byte, error) {
	out := make(map[string]any, len(f))
	for k, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out[k] = strconv.FormatFloat(v, 'g', -1, 64)
		} else {
			out[k] = v
		}
	}
	return json.Marshal(out)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the driver's line: end-to-end metrics for an untraced run,
// per-layer metrics for a traced one. A run is correct when every job
// matched its reference, the replay reproduced sim.Run exactly, and every
// reported number is finite.
func (r *runRecord) result() result {
	res := result{Correct: r.Failed == 0 && len(r.Mismatches) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, r.E2E
	if r.Trace {
		defs, vals = perLayer, r.Layers
	}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res
}

// completeLayers returns the per-layer values with every metric of
// perLayer present: a layer that does not run on the workload (or a value
// that could not be computed) reads 0 and is listed as absent.
func completeLayers(got map[string]float64) (floats, []string) {
	out := make(floats, len(perLayer))
	var absent []string
	for _, m := range perLayer {
		v, ok := got[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			absent = append(absent, m.name)
			v = 0
		}
		out[m.name] = v
	}
	return out, absent
}

func appendRecord(build string, rec *runRecord) error {
	rec.Time = time.Now().UTC()
	dir := filepath.Join(build, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport writes a human-readable summary to standard error.
func printReport(r *runRecord) {
	w := os.Stderr
	fmt.Fprintf(w, "workload %s seed %d (variant %d), %d jobs attempted, %d failed, %d latency samples, setup samples %v\n",
		r.Workload, r.Seed, r.Variant, r.Attempted, r.Failed, r.Samples, r.SetupS)
	fmt.Fprintf(w, "host: %v, CPU stolen by the hypervisor during the window: %.1f%%\n", r.Meta, 100*r.StealFrac)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-22s %14.6g %s", m.name, r.E2E[m.name], m.unit)
		if r.Trace {
			fmt.Fprintf(w, "   traced %14.6g", r.Traced[m.name])
		}
		fmt.Fprintln(w)
	}
	if !r.Trace {
		return
	}
	names := make([]string, 0, len(r.Layers))
	for k := range r.Layers {
		names = append(names, k)
	}
	sort.Strings(names)
	absent := map[string]bool{}
	for _, a := range r.Absent {
		absent[a] = true
	}
	for _, k := range names {
		if absent[k] {
			fmt.Fprintf(w, "  %-40s absent\n", k)
		} else {
			fmt.Fprintf(w, "  %-40s %14.6g\n", k, r.Layers[k])
		}
	}
	for _, m := range r.Mismatches {
		fmt.Fprintln(w, "  MISMATCH:", m)
	}
}

// recordReferences starts the system once per variant and runs two units
// (that variant's and the next one's), so every variant's outputs are
// produced twice, by two server instances, and must repeat exactly.
func recordReferences(ctx context.Context, b *bench, names []string) error {
	path := referencePath(b.root)
	refs, err := loadReferences(path)
	if errors.Is(err, os.ErrNotExist) {
		refs, err = references{}, nil
	}
	if err != nil {
		return err
	}
	for _, name := range names {
		def, ok := lookupWorkload(name)
		if !ok || def.refName != name {
			return fmt.Errorf("cannot record references for %q", name)
		}
		delete(refs, name)
		for v := 0; v < numVariants; v++ {
			if err := b.selectVariant(int64(v), refs.recorders(name)); err != nil {
				return err
			}
			sys, err := def.start(ctx, b)
			if err != nil {
				return err
			}
			for i := 0; i < 2; i++ {
				if j := sys.unit(ctx, false); !j.ok {
					sys.stop(true)
					return fmt.Errorf("%s variant %d: %s", name, v, j.err)
				}
			}
			sys.stop(true)
			fmt.Fprintf(os.Stderr, "recorded %s variant %d\n", name, v)
		}
	}
	out, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
