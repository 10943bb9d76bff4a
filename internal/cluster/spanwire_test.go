package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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

// TestSpanBatchEdgeCases round-trips the values JSON loses or a tracer
// rarely makes.
func TestSpanBatchEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	cases := map[string][]telemetry.Span{
		"empty": nil,
		"open span": {
			{ID: 1, Kind: telemetry.KindExec, Name: "exec job/0", StartUS: 10, DurUS: 5},
			{ID: 2, Parent: 1, Kind: telemetry.KindRun, Name: "run", StartUS: 12, DurUS: 3, Open: true},
		},
		"no attributes": {{ID: 7, Parent: 3, Kind: telemetry.KindWindow, Name: "window 1", StartUS: 1, DurUS: 0}},
		"string and number": {{ID: 1, Kind: telemetry.KindEpoch, Name: "epoch 1", Attrs: []telemetry.Attr{
			{Key: "both", Str: "s", Num: 2.5},
			{Key: "both-num", Str: "s", Num: -2.5, IsNum: true},
			{Key: "empty-num", IsNum: true},
			{Key: "", Str: ""},
		}}},
		"float bits": {{ID: 1, Kind: telemetry.KindWindow, Name: "w", Attrs: []telemetry.Attr{
			{Key: "nan", Num: math.NaN(), IsNum: true},
			{Key: "payload-nan", Num: payloadNaN, IsNum: true},
			{Key: "neg-zero", Num: negZero, IsNum: true},
			{Key: "inf", Num: math.Inf(1), IsNum: true},
			{Key: "neg-inf", Num: math.Inf(-1), IsNum: true},
			{Key: "tiny", Num: math.SmallestNonzeroFloat64, IsNum: true},
		}}},
		"negative and extreme times": {
			{ID: 1, Kind: telemetry.KindRun, Name: "a", StartUS: -1_700_000_000_000_000, DurUS: 40},
			{ID: 2, Kind: telemetry.KindRun, Name: "b", StartUS: math.MaxInt64, DurUS: math.MinInt64},
			{ID: 3, Kind: telemetry.KindRun, Name: "c", StartUS: math.MinInt64, DurUS: -1},
			{ID: 4, Kind: telemetry.KindRun, Name: "d", StartUS: -3},
		},
		"extreme ids": {
			{ID: math.MaxUint64, Parent: math.MaxUint64 - 1, Kind: "", Name: ""},
			{ID: 0, Parent: 0, Kind: telemetry.KindJob, Name: "root"},
		},
		"non-ASCII": {{ID: 1, Kind: "фаза", Name: "épоch ⏱ 核心", Attrs: []telemetry.Attr{
			{Key: "ключ", Str: "温度 °C"},
			{Key: "bad utf-8", Str: "\xff\xfe"},
		}}},
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := telemetry.DecodeSpanBatch(telemetry.EncodeSpanBatch(want))
			if err != nil {
				t.Fatal(err)
			}
			if !equalSpans(got, want) {
				t.Fatalf("round trip changed the spans:\n got %+v\nwant %+v", got, want)
			}
		})
	}
	// Decoded spans share no attribute storage: growing one span's
	// attributes must not touch the next span's.
	two := []telemetry.Span{
		{ID: 1, Attrs: []telemetry.Attr{telemetry.Num("a", 1)}},
		{ID: 2, Attrs: []telemetry.Attr{telemetry.Num("b", 2)}},
	}
	got, err := telemetry.DecodeSpanBatch(telemetry.EncodeSpanBatch(two))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got[0].Attrs, telemetry.Num("c", 3))
	if got[1].Attrs[0].Key != "b" {
		t.Fatalf("append to span 0's attributes overwrote span 1's: %+v", got[1].Attrs)
	}
}

// allocBytes reports the heap bytes f allocates. runtime.ReadMemStats stops
// the world, which costs the fuzz target speed, but it is exact: the
// runtime/metrics counters credit small objects to whoever refills their
// span, hundreds of KB off on this decoder.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// claimBatch builds a header that claims the given counts over too few
// bytes: version, nstrings, then (if nstrings is 0) nspans and nattrs.
func claimBatch(counts ...uint64) []byte {
	b := []byte{batchVersion}
	for _, n := range counts {
		b = binary.AppendUvarint(b, n)
	}
	return append(b, 0) // one byte of padding, far short of any claim
}

// TestDecodeSpanBatchRejects feeds malformed batches: each must fail with a
// *telemetry.SpanBatchError, and the ones that claim more items than their
// bytes can hold must fail before allocating for them.
func TestDecodeSpanBatchRejects(t *testing.T) {
	good := telemetry.EncodeSpanBatch([]telemetry.Span{{ID: 1, Kind: "k", Name: "n", StartUS: 5, DurUS: 1,
		Attrs: []telemetry.Attr{telemetry.Num("x", 1.5), telemetry.Str("y", "z")}}})
	wrongVersion := append([]byte{batchVersion + 1}, good[1:]...)
	cases := map[string]struct {
		in   []byte
		want string
	}{
		"nil":                    {nil, "missing version"},
		"wrong version":          {wrongVersion, "unknown version 2"},
		"trailing byte":          {append(append([]byte(nil), good...), 0), "trailing bytes"},
		"2^40 spans in 10 bytes": {claimBatch(0, 1<<40, 0), "need more than"},
		"2^20 spans":             {claimBatch(0, 1<<20, 0), "need more than"},
		"2^20 attributes":        {claimBatch(0, 0, 1<<20), "need more than"},
		"2^40 strings":           {claimBatch(1 << 40), "need more than"},
		"2^30-byte string":       {claimBatch(1, 1<<30), "exceeds"},
		"overlong varint":        {[]byte{batchVersion, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, "bad string count varint"},
		"unused attributes":      {[]byte{batchVersion, 0, 0, 1, 0, 0}, "not in any span"},
		"string index":           {[]byte{batchVersion, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0}, "kind index 0 outside the 0-string table"},
		"span flags":             {[]byte{batchVersion, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 2, 0}, "unknown span flags"},
		"attribute tag":          {[]byte{batchVersion, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 8}, "unknown attribute tag"},
		"attributes past head":   {[]byte{batchVersion, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1}, "claims 1 attributes"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var spans []telemetry.Span
			var err error
			if n := allocBytes(func() { spans, err = telemetry.DecodeSpanBatch(tc.in) }); n > 16<<10 {
				t.Errorf("decoding %d bytes allocated %d bytes", len(tc.in), n)
			}
			var be *telemetry.SpanBatchError
			if !errors.As(err, &be) {
				t.Fatalf("got %v (%T), want a *telemetry.SpanBatchError", err, err)
			}
			if spans != nil {
				t.Errorf("failed decode returned %d spans", len(spans))
			}
			if !strings.Contains(be.Reason, tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// A proper prefix of a batch is a truncated batch: every prefix of a
	// cut batch, and every 61st of a real run's (each decode reads up to
	// the cut, so all 13k would cost seconds under -race).
	for _, tc := range []struct {
		batch  []byte
		stride int
	}{{telemetry.EncodeSpanBatch(cutBatch()), 1}, {telemetry.EncodeSpanBatch(recordedBatch(t)), 61}} {
		for n := 0; n < len(tc.batch); n += tc.stride {
			var be *telemetry.SpanBatchError
			if _, err := telemetry.DecodeSpanBatch(tc.batch[:n]); !errors.As(err, &be) {
				t.Fatalf("batch truncated to %d of %d bytes: got %v, want a *telemetry.SpanBatchError", n, len(tc.batch), err)
			}
		}
	}
}

// cutBatch is the batch of a cell cut short: the exec root and a run span
// both ended with an error, with one span still open at the snapshot.
func cutBatch() []telemetry.Span {
	w := offlineWorker(0)
	tr, exec := w.execTracer(AssignRequest{Job: "job-000002", Cell: 3})
	run := tr.Start(exec, telemetry.KindRun, "run-003")
	tr.Start(run, telemetry.KindWindow, "window 1", telemetry.Num("time_s", 0))
	tr.End(run, telemetry.Str("error", context.Canceled.Error()))
	tr.End(exec, telemetry.Bool("error", true))
	return w.spanBatch(tr)
}
