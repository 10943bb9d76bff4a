package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Cell is one independently runnable unit of an experiment. Cells of one
// experiment share no mutable state, so a scheduler may execute them in any
// order or concurrently; assembling their outputs in cell order reproduces
// the sequential runner's rows bit for bit.
type Cell struct {
	// Key labels the cell for progress reporting, error messages and trace
	// spans.
	Key string
	// Run executes the cell. The returned row's concrete type depends on
	// the experiment (SuiteRow, Table2Cell, ...).
	Run func(ctx context.Context) (any, error)
	// Prepare, when non-nil, splits the cell into its simulation and a
	// finish step mapping the Result to the cell's row, letting a caller
	// drive the simulation itself (a profiler, a hand-driven replay). Run
	// remains the complete path and routes through the same prepare/finish
	// pair (see SimCell), so rows are bit-identical either way. Cells whose
	// work is not a single simulation (seed studies, single-shot figure
	// experiments) leave Prepare nil.
	Prepare func(ctx context.Context) (sim.BatchRun, FinishCell, error)
	// Shares, when non-nil, marks a cell whose run is the same as an earlier
	// cell's (a seed-insensitive policy's later seeds in a tournament). The
	// executors run only that earlier cell and derive this cell's outcome
	// from its outcome (SharedOutcome); Run and Prepare stay complete, so a
	// caller that runs every cell gets the same rows.
	Shares *SharedRun
}

// SharedRun names the cell whose run a cell shares and how that run's row
// becomes the sharing cell's row.
type SharedRun struct {
	// Cell is the index, in the same plan, of the cell that runs. It is
	// lower than the sharing cell's index and shares no run itself.
	Cell int
	// Row maps the running cell's row to a new row for the sharing cell.
	Row func(any) any
}

// SharedOutcome is the outcome of cells[i], which shares the run of
// cells[i].Shares.Cell, given that cell's outcome: the mapped row, or an
// error naming both cells when the run failed.
func SharedOutcome(cells []Cell, i int, row any, err error) (any, error) {
	sh := cells[i].Shares
	if err != nil {
		return nil, fmt.Errorf("%s: shared run %s failed: %w", cells[i].Key, cells[sh.Cell].Key, err)
	}
	if row == nil {
		return nil, nil
	}
	return sh.Row(row), nil
}

// FinishCell maps a completed simulation to the cell's row.
type FinishCell func(*sim.Result) (any, error)

// SimCell builds the cell whose work is one simulation: Run is prepare →
// sim.Run → finish, and Prepare is prepare itself. Every error Run returns
// names the cell's key.
func SimCell(key string, prepare func(ctx context.Context) (sim.BatchRun, FinishCell, error)) Cell {
	run := func(ctx context.Context) (any, error) {
		br, finish, err := prepare(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		res, err := sim.Run(br.Cfg, br.Work, br.Policy)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		row, err := finish(res)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		return row, nil
	}
	return Cell{Key: key, Run: run, Prepare: prepare}
}

// Assemble merges per-cell outputs, given in cell order, into the
// experiment's row type. Nil entries (skipped or failed cells) are dropped.
type Assemble func(rows []any) any

// AssembleAs is the Assemble of an experiment whose cells each produce one
// T: it collects the non-nil outputs into a []T.
func AssembleAs[T any](rows []any) any {
	out := make([]T, 0, len(rows))
	for _, r := range rows {
		if r != nil {
			out = append(out, r.(T))
		}
	}
	return out
}

// RunCell runs one cell, turning a panic into an error that names the cell,
// so one bad cell cannot take down the loop, pool worker or cluster node
// running it. Every executor calls cells through it.
func RunCell(ctx context.Context, cell Cell) (row any, err error) {
	defer func() {
		if r := recover(); r != nil {
			row, err = nil, fmt.Errorf("%s: panicked: %v", cell.Key, r)
		}
	}()
	return cell.Run(ctx)
}

// RunCells is the sequential executor: it runs cells in order and assembles
// their outputs. A cell that shares an earlier cell's run takes its outcome
// from that run instead of running again. A failing or panicking cell does
// not stop the others; its error joins the returned error and the surviving
// rows are assembled without it.
// Cancellation of ctx stops between cells, and the rows assembled so far
// come back with ctx's error joined in. A cell that fails because ctx was
// cancelled counts as skipped, not failed — the job pool's semantics.
func RunCells(ctx context.Context, cells []Cell, assemble Assemble) (any, error) {
	rows := make([]any, len(cells))
	errs := make([]error, len(cells))
	for i, c := range cells {
		if ctx.Err() != nil {
			break
		}
		var row any
		var err error
		if sh := c.Shares; sh != nil {
			row, err = SharedOutcome(cells, i, rows[sh.Cell], errs[sh.Cell])
		} else {
			row, err = RunCell(ctx, c)
		}
		switch {
		case err == nil:
			rows[i] = row
		case ctx.Err() == nil:
			errs[i] = err
		}
	}
	return assemble(rows), errors.Join(append(errs, ctx.Err())...)
}

// runAs runs a fan-out experiment's cells through RunCells and returns its
// rows typed.
func runAs[T any](ctx context.Context, cells []Cell) ([]T, error) {
	rows, err := RunCells(ctx, cells, AssembleAs[T])
	return rows.([]T), err
}

// TracedConfig threads a span carried on ctx (the service's per-cell span,
// a cluster worker's exec span) into the simulation config, so runs a cell
// executes nest under it. Without a span on ctx it returns cfg unchanged.
func TracedConfig(ctx context.Context, cfg Config) Config {
	if tr, span := telemetry.SpanFromContext(ctx); tr != nil {
		cfg.Run.Tracer = tr
		cfg.Run.TraceParent = span
	}
	return cfg
}
