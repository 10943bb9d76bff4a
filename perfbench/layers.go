package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// perLayer are the traced run's metrics, one layer (module) at a time. A
// metric whose layer does not run on a workload reads 0 and is listed in
// the run record's per_layer_absent.
var perLayer = []metricDef{
	{"thermal.step_ns", "ns"},
	{"thermal.factorize_ms", "ms"},
	{"platform.step_ns", "ns"},
	{"platform.self_ns", "ns"},
	{"platform.ticks_per_cell", "count"},
	{"policy.tick_ns.linux-ondemand", "ns"},
	{"policy.tick_ns.ge-qiu", "ns"},
	{"policy.tick_ns.proposed", "ns"},
	{"policy.tick_ns.releta", "ns"},
	{"policy.tick_ns.distilled", "ns"},
	{"policy.epochs_per_cell", "count"},
	{"reliability.push_ns", "ns"},
	{"reliability.cycles_per_cell", "count"},
	{"reliability.rainflow_ms_per_run", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.ns_per_tick", "ns"},
	{"sim.loop_self_ns", "ns"},
	{"sim.batch_speedup", "x"},
	{"sim.batch_group_size", "count"},
	{"sim.alloc_kb_per_cell", "KiB"},
	{"campaign.plan_ms", "ms"},
	{"campaign.leaderboard_ms", "ms"},
	{"experiments.plan_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.finish_to_result_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.cell_run_ms_p50", "ms"},
	{"service.worker_busy_frac", "frac"},
	{"service.http_ms.submit", "ms"},
	{"service.http_ms.get_job", "ms"},
	{"service.http_ms.result", "ms"},
	{"durable.wal_records_per_job", "count"},
	{"durable.wal_kb_per_job", "KiB"},
	{"durable.fsync_ms_p50", "ms"},
	{"durable.archive_kb_per_job", "KiB"},
	{"telemetry.spans_per_job", "count"},
	{"telemetry.trace_kb_per_job", "KiB"},
	{"telemetry.events_per_job", "count"},
	{"telemetry.scrape_ms", "ms"},
	{"cluster.dispatch_ms_p50", "ms"},
	{"cluster.exec_ms_p50", "ms"},
	{"cluster.commit_ms_p50", "ms"},
	{"cluster.overhead_frac", "frac"},
	{"cluster.leases_per_job", "count"},
	{"cluster.reassigned", "count"},
	{"cluster.duplicates", "count"},
	{"trace.self_ms_per_job.job", "ms"},
	{"trace.self_ms_per_job.cell", "ms"},
	{"trace.self_ms_per_job.run", "ms"},
	{"trace.self_ms_per_job.window", "ms"},
	{"trace.self_ms_per_job.epoch", "ms"},
	{"trace.self_ms_per_job.dispatch", "ms"},
	{"trace.self_ms_per_job.exec", "ms"},
	{"coverage.layers_explain_sim_run", "frac"},
	{"coverage.sim_run_explains_cell_run", "frac"},
	{"trace_overhead.job_latency_p50_ms", "ms"},
	{"trace_overhead.job_latency_p75_ms", "ms"},
	{"trace_overhead.cells_per_s", "1/s"},
	{"trace_overhead.sim_s_per_host_s", "s/s"},
	{"trace_overhead.cpu_ms_per_cell", "ms"},
	{"trace_overhead.peak_rss_mb", "MiB"},
	{"trace_overhead.job_ok_frac", "frac"},
}

// selfKinds are the span kinds whose self time the traced run reports.
var selfKinds = []string{
	telemetry.KindJob, telemetry.KindCell, telemetry.KindRun, telemetry.KindWindow,
	telemetry.KindEpoch, telemetry.KindDispatch, telemetry.KindExec,
}

// windowLayers is part (a) of the traced run: per-layer numbers read from
// outside — client timings, every job's span trace and the /metrics deltas
// of the traced window. Only layers that ran get an entry.
func windowLayers(w window, def workloadDef, workers int) map[string]float64 {
	m := map[string]float64{}
	var ok []jobSample
	var cells int
	for _, j := range w.jobs {
		if j.ok {
			ok = append(ok, j)
			cells += j.cells
		}
	}
	if len(ok) == 0 {
		return m
	}
	jobs := float64(len(ok))
	var submit, result, f2r, scrape, polls, spans, traceKB, events []float64
	var waits, runs, dispatch, exec, commit, busy, epochs []float64
	self := map[string]float64{}
	for _, j := range ok {
		submit = append(submit, ms(j.submit))
		result = append(result, ms(j.result))
		f2r = append(f2r, ms(j.finishToResult))
		scrape = append(scrape, ms(j.scrape))
		polls = append(polls, float64(j.polls))
		spans = append(spans, float64(len(j.spans)))
		traceKB = append(traceKB, float64(j.traceBytes)/1024)
		events = append(events, float64(j.events))
		for _, e := range j.epochs {
			epochs = append(epochs, float64(e))
		}
		var jobDur float64
		var cellSpans []telemetry.Span
		for _, s := range j.spans {
			d := float64(s.DurUS) / 1000
			switch {
			case s.Kind == telemetry.KindJob:
				jobDur = d
			case s.Kind == telemetry.KindCell:
				runs = append(runs, d)
				cellSpans = append(cellSpans, s)
			case s.Kind == telemetry.KindPhase && s.Name == "queue-wait":
				waits = append(waits, d)
			case s.Kind == telemetry.KindPhase && s.Name == "commit":
				commit = append(commit, d)
			case s.Kind == telemetry.KindDispatch:
				dispatch = append(dispatch, d)
			case s.Kind == telemetry.KindExec:
				exec = append(exec, d)
			}
		}
		if jobDur > 0 {
			busy = append(busy, busyMS(cellSpans)/(float64(workers)*jobDur))
		}
		for k, v := range selfTimes(j.spans) {
			self[k] += v
		}
	}
	m["service.submit_ms"] = median(submit)
	m["service.result_ms"] = median(result)
	m["service.finish_to_result_ms"] = median(f2r)
	m["service.polls_per_job"] = mean(polls)
	m["telemetry.spans_per_job"] = mean(spans)
	m["telemetry.trace_kb_per_job"] = mean(traceKB)
	m["telemetry.events_per_job"] = mean(events)
	m["telemetry.scrape_ms"] = median(scrape)
	if len(epochs) > 0 {
		m["policy.epochs_per_cell"] = mean(epochs)
	}
	if len(waits) > 0 {
		m["service.queue_wait_ms_p50"] = median(waits)
	}
	if len(runs) > 0 {
		m["service.cell_run_ms_p50"] = median(runs)
	}
	if len(busy) > 0 {
		m["service.worker_busy_frac"] = mean(busy)
	}
	for _, k := range selfKinds {
		if v, ok := self[k]; ok {
			m["trace.self_ms_per_job."+k] = v / jobs
		}
	}

	b, a := w.before, w.after
	fc := float64(cells)
	m["platform.ticks_per_cell"] = counterDelta(b.sim, a.sim, "sim_steps_total", nil) / fc
	m["reliability.cycles_per_cell"] = counterDelta(b.sim, a.sim, "sim_thermal_cycles_total", nil) / fc
	if _, sum, n := histDelta(b.sim, a.sim, "thermsim_batch_group_size", nil); n > 0 {
		m["sim.batch_group_size"] = sum / n
	}
	for metric, routes := range map[string][]string{
		"service.http_ms.submit":  {"/v1/campaigns", "/v1/jobs"},
		"service.http_ms.get_job": {"/v1/jobs/{id}"},
		"service.http_ms.result":  {"/v1/jobs/{id}/leaderboard", "/v1/jobs/{id}/result"},
	} {
		var sum, n float64
		for _, r := range routes {
			_, s, c := histDelta(b.front, a.front, "thermserved_http_request_seconds", map[string]string{"route": r})
			sum, n = sum+s, n+c
		}
		if n > 0 {
			m[metric] = 1000 * sum / n
		}
	}
	if len(dispatch) > 0 {
		m["cluster.dispatch_ms_p50"] = median(dispatch)
		m["cluster.exec_ms_p50"] = median(exec)
		m["cluster.commit_ms_p50"] = median(commit)
		m["cluster.overhead_frac"] = ratio(sum(dispatch)-sum(exec), sum(dispatch))
		m["cluster.leases_per_job"] = counterDelta(b.front, a.front, "thermserved_cluster_leases_granted_total", nil) / jobs
		m["cluster.reassigned"] = counterDelta(b.front, a.front, "thermserved_cluster_leases_reassigned_total", nil)
		m["cluster.duplicates"] = counterDelta(b.front, a.front, "thermserved_cluster_duplicate_results_total", nil)
	}
	return m
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// busyMS is the worker time a job's cell spans account for. The cells of
// one lockstep batch share a worker and end together (within a
// millisecond), so each such group counts once.
func busyMS(cells []telemetry.Span) float64 {
	sort.Slice(cells, func(i, j int) bool {
		return cells[i].StartUS+cells[i].DurUS < cells[j].StartUS+cells[j].DurUS
	})
	var total float64
	lastEnd := int64(-1 << 62)
	for _, s := range cells {
		end := s.StartUS + s.DurUS
		if end-lastEnd > 1000 {
			total += float64(s.DurUS) / 1000
			lastEnd = end
		}
	}
	return total
}

// selfTimes sums, per span kind, each span's duration minus the part of it
// its children cover, in ms.
func selfTimes(spans []telemetry.Span) map[string]float64 {
	children := map[telemetry.SpanID][]telemetry.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		start, end := s.StartUS, s.StartUS+s.DurUS
		var iv [][2]int64
		for _, c := range children[s.ID] {
			cs, ce := max(c.StartUS, start), min(c.StartUS+c.DurUS, end)
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
		}
		out[s.Kind] += float64(s.DurUS-covered(iv)) / 1000
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curE = -1 << 62
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// hostMeta describes the host, the toolchain, the code and the server flags
// in force, so a number is never read without its machine.
func hostMeta(b *bench, def workloadDef) map[string]any {
	flags := map[string]any{"workers": b.nproc, "batch_lanes": service.DefaultBatchLanes, "data_dir": false, "role": "standalone", "ttl": jobTTL.String()}
	switch def.name {
	case "tournament-cluster":
		flags["role"] = "coordinator"
		flags["batch_lanes"] = "off (coordinator)"
		flags["cluster_workers"] = clusterWorkers
		flags["worker_capacity"] = 1
	}
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"goarch":       runtime.GOARCH,
		"cpu":          cpuModel(),
		"commit":       commit(b.root),
		"source":       sourceDigest(b.root),
		"server_flags": flags,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "none" outside a git work tree.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	cmd := exec.CommandContext(context.Background(), "git", "-C", root, "rev-parse", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the repository's Go sources and go.mod files, which
// identifies the code when there is no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(root, path)
				h.Write([]byte(rel))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
