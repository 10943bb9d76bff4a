package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// recordedRun is one example-tournament run's span batch as a cluster worker
// ships it (cell 13, tournament/proposed/mpegdec/s2/r0: 104 spans, near the
// example's mean of 93), written with WriteSpansJSONL. The fuzz target seeds
// from it and the benchmarks encode it. It is a recording, not a fresh run,
// so a fuzz worker starts without simulating.
const recordedRun = "testdata/tournament-run.jsonl"

// recordedBatch loads recordedRun.
func recordedBatch(tb testing.TB) []Span {
	tb.Helper()
	f, err := os.Open(recordedRun)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	spans, err := DecodeSpansJSONL(f)
	if err != nil {
		tb.Fatal(err)
	}
	return spans
}

// cutSpans is the trace of a cell cut short: the root and a run span both
// ended with an error, with one window span still open at the snapshot.
func cutSpans() []Span {
	tr := newTestTracer(0)
	exec := tr.Start(0, KindExec, "exec job-000002/3", Str("worker", "w0"), Num("cell", 3))
	run := tr.Start(exec, KindRun, "run-003")
	tr.Start(run, KindWindow, "window 1", Num("time_s", 0))
	tr.End(run, Str("error", context.Canceled.Error()))
	tr.End(exec, Bool("error", true))
	return tr.Snapshot()
}

// equalSpans is reflect.DeepEqual with attribute numbers compared by their
// bits, so NaN equals itself and −0 differs from +0.
func equalSpans(a, b []Span) bool {
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

// FuzzDecodeSpanBatch holds the decoder to the invariants of a boundary that
// reads untrusted bytes (a cluster coordinator decodes what its workers
// send): no panic, a *SpanBatchError for input it rejects, allocation
// bounded by the input's length, and a batch that decodes re-encodes to one
// that decodes to the same spans, field by field. The seeds added here are
// written by the encoder under test, so they cannot show it losing a field;
// testdata/fuzz/FuzzDecodeSpanBatch/every-field is a stored batch that sets
// every field (an open span, extreme IDs and times, −0, a NaN payload, a
// string beside a number), so a field the encoder drops fails its re-encode.
func FuzzDecodeSpanBatch(f *testing.F) {
	run := EncodeSpanBatch(recordedBatch(f))
	f.Add(run)
	f.Add(EncodeSpanBatch(cutSpans()))
	f.Add(EncodeSpanBatch(nil))
	f.Add(run[:len(run)/2])
	f.Add(append([]byte{spanBatchVersion + 1}, run[1:]...))
	f.Fuzz(func(t *testing.T, in []byte) {
		var spans []Span
		var err error
		// The decoder allocates at most ~24 bytes per input byte (a 48-byte
		// Attr per 2-byte minimum encoding), plus the error's text.
		if n, limit := allocBytes(func() { spans, err = DecodeSpanBatch(in) }), 32*uint64(len(in))+16<<10; n > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(in), n, limit)
		}
		if err != nil {
			var be *SpanBatchError
			if !errors.As(err, &be) {
				t.Fatalf("got %v (%T), want a *SpanBatchError", err, err)
			}
			return
		}
		again, err := DecodeSpanBatch(EncodeSpanBatch(spans))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !equalSpans(again, spans) {
			t.Fatalf("re-encoded batch decodes to different spans:\n got %+v\nwant %+v", again, spans)
		}
	})
}

// BenchmarkSpanBatchCodec encodes and decodes one recorded example-tournament
// run's span batch, beside encoding/json on the same spans (the format it
// replaced on the cluster wire).
func BenchmarkSpanBatchCodec(b *testing.B) {
	spans := recordedBatch(b)
	batch := EncodeSpanBatch(spans)
	js, err := json.Marshal(spans)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary/encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(batch)), "bytes/batch")
		for i := 0; i < b.N; i++ {
			EncodeSpanBatch(spans)
		}
	})
	b.Run("binary/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSpanBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(js)), "bytes/batch")
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(spans); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out []Span
			if err := json.Unmarshal(js, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
