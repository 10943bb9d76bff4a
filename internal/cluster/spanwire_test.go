package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// exampleTournament is the README's example tournament as a job spec.
func exampleTournament(tb testing.TB) service.Spec {
	tb.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "tournament", "experiments.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return service.Spec{Experiment: campaign.Experiment, Campaign: doc}
}

// offlineWorker is a worker that is never started: it only lends tests its
// execTracer and spanBatch, with clockOffsetUS as its offset estimate.
func offlineWorker(clockOffsetUS int64) *Worker {
	w, err := NewWorker(WorkerConfig{ID: "w0", CoordinatorURL: "http://127.0.0.1:1", AdvertiseURL: "http://127.0.0.1:2"})
	if err != nil {
		panic(err) // every required field is set
	}
	w.clockOffsetUS.Store(clockOffsetUS)
	return w
}

// tracedCell runs cell idx of spec the way Worker.run runs a traced
// assignment and returns the span batch its result would carry.
func tracedCell(w *Worker, spec service.Spec, idx int) ([]telemetry.Span, error) {
	tr, exec := w.execTracer(AssignRequest{Job: "job-000001", Cell: idx, Spec: spec})
	_, err := ExecuteCell(telemetry.ContextWithSpan(context.Background(), tr, exec), spec, idx, nil)
	tr.End(exec, telemetry.Bool("error", err != nil))
	if err != nil {
		return nil, err
	}
	return w.spanBatch(tr), nil
}

// recordedRun is one example-tournament run's span batch: cell 13
// (tournament/proposed/mpegdec/s2/r0, 104 spans, near the example's mean of
// 93) as tracedCell returns it, written with telemetry.WriteSpansJSONL. It
// seeds telemetry's FuzzDecodeSpanBatch, and the benchmarks here ship it.
var recordedRun = filepath.Join("..", "telemetry", "testdata", "tournament-run.jsonl")

// batchVersion is the span batch's version byte, its first.
var batchVersion = telemetry.EncodeSpanBatch(nil)[0]

// recordedBatch loads recordedRun.
func recordedBatch(tb testing.TB) []telemetry.Span {
	tb.Helper()
	f, err := os.Open(recordedRun)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	spans, err := telemetry.DecodeSpansJSONL(f)
	if err != nil {
		tb.Fatal(err)
	}
	return spans
}

// equalSpans is reflect.DeepEqual with attribute numbers compared by their
// bits, so NaN equals itself and −0 differs from +0.
func equalSpans(a, b []telemetry.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if len(x.Attrs) != len(y.Attrs) {
			return false
		}
		for j := range x.Attrs {
			p, q := x.Attrs[j], y.Attrs[j]
			if p.Key != q.Key || p.Str != q.Str || p.IsNum != q.IsNum ||
				math.Float64bits(p.Num) != math.Float64bits(q.Num) {
				return false
			}
		}
		x.Attrs, y.Attrs = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func jsonl(tb testing.TB, spans []telemetry.Span) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteSpansJSONL(&buf, spans); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpanBatchTournamentFidelity runs every cell of the example tournament
// that a coordinator leases (a cell sharing an earlier cell's run is never
// dispatched) under a worker-style tracer, shifted by a clock offset, and
// demands the decoded batch equal the original span for span and export to
// the same JSONL bytes.
func TestSpanBatchTournamentFidelity(t *testing.T) {
	spec := exampleTournament(t)
	cells, _, err := campaign.Cells(spec.Config(), spec.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	w := offlineWorker(-987_654)
	var runs, nspans, jsonBytes, wireBytes int
	for i, c := range cells {
		if c.Shares != nil {
			continue
		}
		runs++
		want, err := tracedCell(w, spec, i)
		if err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
		batch := telemetry.EncodeSpanBatch(want)
		got, err := telemetry.DecodeSpanBatch(batch)
		if err != nil {
			t.Fatalf("%s: %v", c.Key, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded batch differs from the %d spans encoded", c.Key, len(want))
		}
		if !bytes.Equal(jsonl(t, got), jsonl(t, want)) {
			t.Fatalf("%s: decoded batch exports different JSONL", c.Key)
		}
		js, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		nspans += len(want)
		jsonBytes += len(js)
		wireBytes += len(batch)
	}
	if runs != 25 {
		t.Fatalf("example tournament leased %d runs, want 25", runs)
	}
	t.Logf("%d runs, %.1f spans/run: %.1f KB JSON vs %.1f KB batch per run",
		runs, float64(nspans)/float64(runs), float64(jsonBytes)/1e3/float64(runs), float64(wireBytes)/1e3/float64(runs))
}
