package experiments

import (
	"context"
	"encoding/json"
	"fmt"
)

// experiment is one registry entry: the experiment's name, its cell plan,
// and the row type its cells produce, which fixes how cell outputs are
// assembled into the result, decoded from their JSON form and formatted.
type experiment struct {
	name     string
	cells    func(Config) []Cell
	assemble Assemble
	decode   func([]byte) (any, error)
	format   func(any) string
}

// fanOut registers a campaign-shaped experiment whose cells each produce one
// T; its result is the []T of surviving rows in cell order.
func fanOut[T any](name string, cells func(Config) []Cell, format func([]T) string) experiment {
	return experiment{
		name:     name,
		cells:    cells,
		assemble: AssembleAs[T],
		decode:   decodeInto[T],
		format:   func(rows any) string { return format(rows.([]T)) },
	}
}

// singleShot registers an experiment computed by one call of run: a single
// cell keyed by the experiment's name, whose row is the whole result R.
func singleShot[R any](name string, run func(Config) (R, error), format func(R) string) experiment {
	cells := func(cfg Config) []Cell {
		return []Cell{{Key: name, Run: func(ctx context.Context) (any, error) {
			r, err := run(TracedConfig(ctx, cfg))
			if err != nil {
				return nil, err
			}
			return r, nil
		}}}
	}
	assemble := func(rows []any) any {
		if len(rows) != 1 {
			return nil
		}
		return rows[0]
	}
	return experiment{
		name:     name,
		cells:    cells,
		assemble: assemble,
		decode:   decodeInto[R],
		format:   func(r any) string { return format(r.(R)) },
	}
}

// registry lists every experiment in paper order, followed by the
// repository's own studies. Adding an experiment is one entry here.
var registry = []experiment{
	singleShot("fig1", Fig1, FormatFig1),
	fanOut("table2", table2Cells, FormatTable2),
	singleShot("fig3", Fig3, FormatFig3),
	singleShot("fig45", Fig45, FormatFig45),
	singleShot("fig6", Fig6, FormatFig6),
	singleShot("fig7", Fig7, FormatFig7),
	singleShot("fig8", Fig8, FormatFig8),
	singleShot("table3", PerfEnergyGrid, FormatTable3),
	singleShot("fig9", PerfEnergyGrid, FormatFig9),
	singleShot("ablation", Ablation, FormatAblation),
	fanOut("seeds", seedCells, FormatSeedStudy),
	singleShot("manycore", Manycore, FormatManycore),
	singleShot("noise", NoiseStudy, FormatNoiseStudy),
	fanOut("suite", suiteCells, FormatSuite),
	fanOut("concurrent", concurrentCells, FormatConcurrent),
	singleShot("library", LibraryStudy, FormatLibraryStudy),
}

// lookup finds the registry entry of experiment id.
func lookup(id string) (experiment, error) {
	for _, e := range registry {
		if e.name == id {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, ExperimentNames())
}

// ExperimentNames lists every registered experiment, in paper order
// followed by the repository's own studies.
func ExperimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// Cells decomposes experiment id under cfg into independently runnable
// cells plus the assembler that merges their outputs. Campaign-shaped
// experiments fan out per cell — suite and table2 per (app, policy) run,
// concurrent per (mix, policy), seeds per application — while the remaining
// single-shot experiments are one cell each.
func Cells(cfg Config, id string) ([]Cell, Assemble, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, nil, err
	}
	return e.cells(cfg), e.assemble, nil
}

// RunCtx executes an experiment by id under ctx through RunCells and
// returns its formatted report.
func RunCtx(ctx context.Context, cfg Config, id string) (string, error) {
	e, err := lookup(id)
	if err != nil {
		return "", err
	}
	rows, err := RunCells(ctx, e.cells(cfg), e.assemble)
	if err != nil {
		return "", err
	}
	return e.format(rows), nil
}

// RunRowsCtx executes an experiment by id under ctx and returns its typed
// row data (for machine-readable output); Table 3 and Fig. 9 share the
// PerfEnergyGrid rows. The experiment's cells run through RunCells, so a
// failing cell leaves the surviving rows next to the joined errors.
func RunRowsCtx(ctx context.Context, cfg Config, id string) (any, error) {
	cells, assemble, err := Cells(cfg, id)
	if err != nil {
		return nil, err
	}
	return RunCells(ctx, cells, assemble)
}

// DecodeCellRow rebuilds one cell's typed row from its JSON serialization.
// The durable job journal and cluster completions carry cell rows as JSON;
// decoding hands the pool's assembler the same concrete types a live run
// produces, so a recovered or remotely executed job's assembled result is
// bit-identical (Go's shortest-representation float64 encoding round-trips
// exactly).
func DecodeCellRow(id string, data []byte) (any, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, err
	}
	row, err := e.decode(data)
	if err != nil {
		return nil, fmt.Errorf("experiments: decode %s cell row: %w", id, err)
	}
	return row, nil
}

// decodeInto unmarshals data into a value of type T and returns it as the
// concrete type (not a pointer), matching what a cell's Run returns.
func decodeInto[T any](data []byte) (any, error) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}
