package main

import (
	"fmt"
	"io"
	"regexp"
	"sort"
)

// Metrics a gate row can check.
const (
	nsPerOp     = "ns/op"
	allocsPerOp = "allocs/op"
)

// gate is one row of the benchmark gate table: every benchmark whose name
// (without its -GOMAXPROCS suffix) Bench matches must keep Metric within
// Threshold of its baseline entry, a fraction (0.20 lets it rise 20%; 0
// lets a zero stay zero). `make bench-gate` checks every row on a full
// sweep; `make ci` checks the CI rows on bench-smoke's one-iteration pass.
type gate struct {
	Bench     string
	Metric    string
	Threshold float64
	CI        bool
}

// gates is the table. A row that matches no benchmark fails, and so does a
// benchmark it matches that is missing from the run or from the baseline,
// so a renamed benchmark cannot drop out of a gate unseen.
var gates = []gate{
	// The seven figure campaigns regenerate the paper's results.
	{Bench: `^BenchmarkFig`, Metric: nsPerOp, Threshold: 0.20},
	// Learning-curve sampling with no observer armed is a nil receiver, and
	// Fig1 arms none.
	{Bench: `^BenchmarkFig1$`, Metric: nsPerOp, Threshold: 0.02},
	// ci's coarse time bound on the two headline campaigns: one iteration on
	// a shared 2-vCPU host has read 2.0x a sweep's median (Fig3).
	{Bench: `^BenchmarkFig[13]$`, Metric: nsPerOp, Threshold: 2.0, CI: true},
	// One HTTP exchange per cluster cell, with stub cells.
	{Bench: `^BenchmarkClusterDispatch$`, Metric: nsPerOp, Threshold: 0.05},
	// The distilled policy's decision epoch is one table lookup.
	{Bench: `^BenchmarkDecisionEpoch/distilled$`, Metric: nsPerOp, Threshold: 0.50},
	// The per-tick and per-decision kernels allocate nothing.
	{Bench: `^Benchmark(PlatformStep|SchedulerTick|FixedStep/fixed|QTableUpdate|AgentSelectAction|DecisionEpoch/.+)$`,
		Metric: allocsPerOp, CI: true},
	// Campaigns and single runs whose allocation counts repeat run to run.
	// A one-iteration pass also counts the first call's set-up, up to ~6%
	// above a sweep's per-op count; the threshold absorbs that.
	{Bench: `^Benchmark(Fig.+|Table[23]|Ablation|TournamentCells|PooledSuite/.+|Recover|SimRun(Proposed|Linux)|RunTraceOn)$`,
		Metric: allocsPerOp, Threshold: 0.10, CI: true},
}

// value returns the measurement a row checks, and whether it was taken.
func (r result) value(metric string) (float64, bool) {
	if metric == allocsPerOp {
		if r.AllocsPerOp == nil {
			return 0, false
		}
		return *r.AllocsPerOp, true
	}
	return r.NsPerOp, true
}

// check checks every row (only the CI rows when ciOnly) against the run
// and the baseline, writing one line per benchmark a row checks, and
// reports whether all rows passed.
func check(w io.Writer, rows []gate, run, base map[string]result, ciOnly bool) bool {
	pass := true
	for _, g := range rows {
		if ciOnly && !g.CI {
			continue
		}
		names := union(run, base, regexp.MustCompile(g.Bench))
		if len(names) == 0 {
			fmt.Fprintf(w, "  FAIL  %-44s %-9s matches no benchmark\n", g.Bench, g.Metric)
			pass = false
			continue
		}
		for _, name := range names {
			detail, ok := checkOne(g, run, base, name)
			status := "ok  "
			if !ok {
				status, pass = "FAIL", false
			}
			fmt.Fprintf(w, "  %s  %-44s %-9s %s\n", status, name, g.Metric, detail)
		}
	}
	if pass {
		fmt.Fprintln(w, "benchjson: OK: every gate row holds")
	} else {
		fmt.Fprintln(w, "benchjson: FAIL: a gate row does not hold")
	}
	return pass
}

// checkOne checks benchmark name on row g, returning the measurement
// against its limit, or why there is none, and whether it holds.
func checkOne(g gate, run, base map[string]result, name string) (string, bool) {
	r, inRun := run[name]
	b, inBase := base[name]
	if !inRun {
		return "in the baseline but not in this run", false
	}
	if !inBase {
		return "no baseline entry", false
	}
	old, okOld := b.value(g.Metric)
	now, okNow := r.value(g.Metric)
	if !okOld || !okNow {
		return "not measured on both sides (-benchmem?)", false
	}
	return fmt.Sprintf("%s, limit %+.0f%%", deltaStr(old, now), 100*g.Threshold), now <= old*(1+g.Threshold)
}

// union returns the sorted names of run and base that match re, every name
// when re is nil.
func union(run, base map[string]result, re *regexp.Regexp) []string {
	seen := map[string]bool{}
	for _, m := range []map[string]result{run, base} {
		for name := range m {
			if re == nil || re.MatchString(name) {
				seen[name] = true
			}
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
