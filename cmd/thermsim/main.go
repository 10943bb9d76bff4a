// Command thermsim regenerates the paper's tables and figures on the
// simulated quad-core platform.
//
// Usage:
//
//	thermsim [-quick] [-repeats N] [-events trace.jsonl] <experiment>...
//	thermsim -list
//	thermsim all
//
// Experiments: fig1, table2, fig3, fig45, fig6, fig7, fig8, table3, fig9,
// plus the repository's ablation, seeds (RL-seed robustness) and manycore
// (scalability) studies. -json emits machine-readable rows.
//
// -events FILE dumps the RL controller's decision trace (one JSON event per
// epoch: state bin, action, reward, q_reset/snapshot_restore markers), read
// off the span trace's epoch spans, to FILE after the experiments finish;
// "-" writes to stderr so it composes with -json on stdout. -log-level debug
// logs every decision epoch live.
//
// -trace FILE dumps the hierarchical span trace (run → window/epoch spans
// with per-core thermal and RL attributes) after the experiments finish. A
// .jsonl suffix selects the archival one-span-per-line form; any other name
// gets Chrome trace-event JSON, loadable in chrome://tracing or Perfetto.
//
// -learning-csv FILE samples every learning policy's learning curve and
// writes the per-epoch points (reward, mean |TD error|, learning rate,
// state-visit coverage, greedy-policy stability, attributed cycling damage)
// as one deterministic CSV after the experiments finish — one row per
// (policy, workload, seed, repeat, epoch). Sampling is observation-only, so
// results are bit-identical with and without it.
//
// -save-agent FILE persists the last learning-policy run's checkpoint: its RL
// agent's learned state (live Q-table, exploration-end snapshot, learning
// rate), tagged with the policy's kind (a proposed-controller checkpoint
// keeps the historical untagged format). -load-agent FILE warm-starts every
// run of the policy that owns the file's kind instead of a zero Q-table;
// non-proposed kinds are only routable inside a tournament, so a -campaign
// run's checkpoint loads back into -campaign.
//
// -campaign FILE runs a declarative tournament instead of the paper
// experiments: FILE is an experiments.json document (policies x workloads x
// seeds x repeats, see the campaign package) and the output is a per-policy
// leaderboard — aligned text by default, machine-readable with -json, plus
// a deterministic CSV file with -leaderboard-csv. The identical document
// submitted to thermserved's POST /v1/campaigns produces bit-identical
// rows and leaderboard.
//
// Exit status is 2 for a command-line mistake and 1 for any other failure,
// including a failing cell: every cell still runs, and the error names each
// failed one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	// Experiments and campaigns abort between cells on ^C instead of
	// finishing a potentially hour-long sweep.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "thermsim:", err)
		os.Exit(1)
	}
}

// errUsage reports a command-line mistake that run has already described on
// stderr; main exits with status 2 for it and 1 for any other error.
var errUsage = errors.New("usage error")

// run is the whole command: it parses args, runs the requested experiments
// (or the -campaign tournament) under ctx, writes results to stdout and
// diagnostics to stderr, then writes the requested side files.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("thermsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced sweeps (fast smoke mode)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON rows instead of tables")
	repeats := fs.Int("repeats", 0, "seed repeats for learning-sensitive sweeps (0 = default)")
	list := fs.Bool("list", false, "list available experiments and exit")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	eventsOut := fs.String("events", "", "write the RL decision-event trace as JSONL to this file (\"-\" = stderr)")
	traceOut := fs.String("trace", "", "write the run/window/epoch span trace to this file (.jsonl = archival JSONL, anything else = Chrome trace-event JSON for Perfetto)")
	saveAgent := fs.String("save-agent", "", "write the policy checkpoint of the last learning-policy run to this file")
	loadAgent := fs.String("load-agent", "", "warm-start runs from policy checkpoint state in this file")
	campaignFile := fs.String("campaign", "", "run the declarative tournament in this experiments.json document instead of paper experiments")
	leaderboardCSV := fs.String("leaderboard-csv", "", "with -campaign: also write the leaderboard as deterministic CSV to this file")
	learningCSV := fs.String("learning-csv", "", "write every learning policy's per-epoch learning curve as deterministic CSV to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [-quick] [-repeats N] [-events FILE] <experiment>...|all\n", fs.Name())
		fmt.Fprintf(stderr, "       %s -campaign experiments.json [-leaderboard-csv FILE]\n", fs.Name())
		fmt.Fprintf(stderr, "experiments: %v\n", experiments.ExperimentNames())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag set has printed the error and the usage
	}

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "thermsim:", err)
		return errUsage
	}
	slog.SetDefault(telemetry.NewLogger(stderr, level))

	if *list {
		for _, id := range experiments.ExperimentNames() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	ids := fs.Args()
	if *campaignFile == "" {
		if len(ids) == 0 {
			fs.Usage()
			return errUsage
		}
		if len(ids) == 1 && ids[0] == "all" {
			ids = experiments.ExperimentNames()
		}
	} else if len(ids) > 0 {
		fmt.Fprintln(stderr, "thermsim: -campaign replaces the positional experiment list")
		return errUsage
	}

	cfg := experiments.DefaultConfig()
	cfg.Quick = *quick
	cfg.Repeats = *repeats

	// -events and -trace both read the one span trace.
	var tracer *telemetry.Tracer
	if *eventsOut != "" || *traceOut != "" {
		tracer = telemetry.NewTracer(0)
		cfg.Run.Tracer = tracer
	}
	var curves *rl.CurveSet
	if *learningCSV != "" {
		curves = rl.NewCurveSet()
	}
	var lastLearner policy.Checkpointer
	if curves != nil || *saveAgent != "" {
		// Every learning run reaches this one observer, in run order.
		cfg.Run.LearningObserver = func(c rl.RunCurve, p sim.Policy) {
			curves.Add(c)
			lastLearner, _ = p.(policy.Checkpointer)
		}
	}

	if *loadAgent != "" {
		payload, err := os.ReadFile(*loadAgent)
		if err != nil {
			return fmt.Errorf("-load-agent: %w", err)
		}
		// ApplyWarmPayload routes the checkpoint by kind, with typed
		// dimension validation for the proposed controller's tables.
		warmFor := "cli"
		if *campaignFile != "" {
			warmFor = campaign.Experiment
		}
		if err := campaign.ApplyWarmPayload(&cfg, warmFor, payload); err != nil {
			return fmt.Errorf("-load-agent: %w", err)
		}
	}
	switch {
	case *campaignFile != "":
		doc, err := os.ReadFile(*campaignFile)
		if err != nil {
			return fmt.Errorf("-campaign: %w", err)
		}
		cfg.CampaignJSON = doc
		err = runCampaign(ctx, cfg, *asJSON, *leaderboardCSV, stdout)
	case *asJSON:
		err = runJSON(ctx, cfg, ids, stdout)
	default:
		err = runText(ctx, cfg, ids, stdout)
	}
	if err != nil {
		return err
	}
	spans := tracer.Snapshot()
	if err := dumpEvents(spans, *eventsOut, stderr); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if err := dumpTrace(spans, *traceOut); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if n := tracer.Dropped(); n > 0 {
		fmt.Fprintf(stderr, "thermsim: -events/-trace: span ring dropped the oldest %d spans (kept %d)\n", n, tracer.Len())
	}
	if curves != nil {
		if err := writeFile(*learningCSV, curves.WriteCSV); err != nil {
			return fmt.Errorf("-learning-csv: %w", err)
		}
	}
	if *saveAgent != "" {
		// A run list with no learning-policy run leaves nothing to save;
		// that is an error so scripts notice.
		if lastLearner == nil {
			return errors.New("-save-agent: no learning-policy run produced an agent")
		}
		payload, err := lastLearner.SaveCheckpoint()
		if err == nil {
			err = os.WriteFile(*saveAgent, payload, 0o666)
		}
		if err != nil {
			return fmt.Errorf("-save-agent: %w", err)
		}
	}
	return nil
}

// runJSON runs the experiments and prints their rows as one JSON object
// keyed by experiment id.
func runJSON(ctx context.Context, cfg experiments.Config, ids []string, stdout io.Writer) error {
	all := map[string]any{}
	for _, id := range ids {
		rows, err := experiments.RunRowsCtx(ctx, cfg, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		all[id] = rows
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	return enc.Encode(all)
}

// runText runs the experiments and prints each formatted report.
func runText(ctx context.Context, cfg experiments.Config, ids []string, stdout io.Writer) error {
	for _, id := range ids {
		start := time.Now()
		out, err := experiments.RunCtx(ctx, cfg, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(stdout, "=== %s (completed in %v) ===\n%s\n", id, time.Since(start).Round(time.Millisecond), out)
	}
	return nil
}

// runCampaign expands the tournament document on cfg.CampaignJSON, runs its
// cells through the sequential executor and prints the per-policy
// leaderboard: aligned text (or -json), plus a deterministic CSV surface when
// csvPath is set. The rows are bit-identical to the same document submitted
// to thermserved, standalone or clustered — that equivalence is what makes
// the CSV comparable across runs.
func runCampaign(ctx context.Context, cfg experiments.Config, asJSON bool, csvPath string, stdout io.Writer) error {
	spec, err := campaign.ParseSpec(cfg.CampaignJSON)
	if err != nil {
		return err
	}
	cells, assemble, err := campaign.Cells(cfg, campaign.Experiment)
	if err != nil {
		return err
	}
	start := time.Now()
	rows, err := experiments.RunCells(ctx, cells, assemble)
	if err != nil {
		return err
	}
	slog.Info("campaign done", "cells", len(cells), "wall", time.Since(start).Round(time.Millisecond))
	trows := rows.([]campaign.Row)
	entries := campaign.Leaderboard(trows)
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(map[string]any{"name": spec.Name, "leaderboard": entries, "rows": trows}); err != nil {
			return err
		}
	} else {
		fmt.Fprint(stdout, campaign.FormatLeaderboard(spec.Name, entries))
	}
	if csvPath == "" {
		return nil
	}
	err = writeFile(csvPath, func(w io.Writer) error { return campaign.WriteCSV(w, entries) })
	if err != nil {
		return fmt.Errorf("-leaderboard-csv: %w", err)
	}
	return nil
}

// writeFile creates path and fills it with write, reporting the first error
// of the write or the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// dumpEvents writes the decision trace read off spans' epoch spans as JSONL
// to path ("-" means stderr, keeping stdout clean for -json rows).
func dumpEvents(spans []telemetry.Span, path string, stderr io.Writer) error {
	write := func(w io.Writer) error { return telemetry.WriteEventsJSONL(w, telemetry.DecisionEvents(spans)) }
	switch path {
	case "":
		return nil
	case "-":
		return write(stderr)
	}
	return writeFile(path, write)
}

// dumpTrace writes the collected span trace to path: a .jsonl suffix selects
// the archival one-span-per-line form, anything else the Chrome trace-event
// JSON that chrome://tracing and Perfetto open directly.
func dumpTrace(spans []telemetry.Span, path string) error {
	if path == "" {
		return nil
	}
	write := func(w io.Writer) error { return telemetry.WriteChromeTrace(w, spans) }
	if strings.HasSuffix(path, ".jsonl") {
		write = func(w io.Writer) error { return telemetry.WriteSpansJSONL(w, spans) }
	}
	return writeFile(path, write)
}
